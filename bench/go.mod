module mp5/bench

go 1.22

require mp5 v0.0.0

replace mp5 => ../
