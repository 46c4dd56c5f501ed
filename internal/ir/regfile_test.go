package ir

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestClampIndex(t *testing.T) {
	cases := []struct{ idx, size, want int }{
		{0, 4, 0}, {3, 4, 3}, {4, 4, 0}, {5, 4, 1},
		{-1, 4, 3}, {-4, 4, 0}, {-5, 4, 3},
		{7, 1, 0}, {0, 0, 0}, {9, -3, 0},
		// The edges of the in-range fast path.
		{511, 512, 511}, {512, 512, 0}, {-1, 512, 511},
		{3, 0, 0}, {-1, 0, 0}, {0, -1, 0}, {-1, -1, 0},
	}
	for _, c := range cases {
		if got := ClampIndex(c.idx, c.size); got != c.want {
			t.Errorf("ClampIndex(%d, %d) = %d, want %d", c.idx, c.size, got, c.want)
		}
	}
	prop := func(idx int, size uint8) bool {
		s := int(size)
		got := ClampIndex(idx, s)
		if s <= 0 {
			return got == 0
		}
		return got >= 0 && got < s
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
	// The fast path against the divide-only form, on draws that land on
	// both sides of it.
	divide := func(idx, size int) int {
		if size <= 0 {
			return 0
		}
		return ((idx % size) + size) % size
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		size := rng.Intn(40) - 4
		idx := rng.Intn(4*40) - 2*40
		if i%8 == 0 {
			idx = int(rng.Uint64())
		}
		if got, want := ClampIndex(idx, size), divide(idx, size); got != want {
			t.Fatalf("ClampIndex(%d, %d) = %d, divide-only form gives %d", idx, size, got, want)
		}
	}
}
