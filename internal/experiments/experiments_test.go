package experiments

import (
	"strconv"
	"strings"
	"testing"

	"mp5/internal/core"
	"mp5/internal/workload"
)

// tiny keeps the experiment tests fast while still exercising the full
// table-generation paths.
var tiny = Scale{Packets: 4000, Seeds: 1}

func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(tab.Rows[row][col], "%"), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

func TestTable1Shape(t *testing.T) {
	tab := Table1()
	if len(tab.Rows) != 12 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Model vs paper within 12% per row.
	for i := range tab.Rows {
		model := cell(t, tab, i, 2)
		paper := cell(t, tab, i, 3)
		if rel := (model - paper) / paper; rel > 0.12 || rel < -0.12 {
			t.Errorf("row %v: model %0.2f vs paper %0.2f", tab.Rows[i][:2], model, paper)
		}
		if tab.Rows[i][5] != "true" {
			t.Errorf("row %v misses 1 GHz", tab.Rows[i])
		}
	}
}

func TestSRAMShape(t *testing.T) {
	tab := SRAM()
	// The paper's example row: 10 stages x 1000 entries ≈ 36.6 KB.
	found := false
	for _, row := range tab.Rows {
		if row[0] == "10" && row[1] == "1000" {
			found = true
			if kb, _ := strconv.ParseFloat(row[2], 64); kb < 35 || kb > 38 {
				t.Errorf("SRAM overhead %s KB, paper says ~35 KB", row[2])
			}
		}
	}
	if !found {
		t.Fatal("missing the paper's example row")
	}
}

func TestD2ShardingShape(t *testing.T) {
	tab := D2Sharding(tiny)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d (uniform, skewed, skewed+churn)", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		gainMean, _ := strconv.ParseFloat(row[4], 64)
		if gainMean < 1.0 {
			t.Errorf("%s: dynamic sharding mean gain %.2f < 1", row[0], gainMean)
		}
	}
}

func TestD4ViolationsShape(t *testing.T) {
	tab := D4Violations(tiny)
	if tab.Rows[0][0] != "mp5" || tab.Rows[0][2] != "0.0%" {
		t.Fatalf("MP5 row must show zero violations: %v", tab.Rows[0])
	}
	noD4 := cell(t, tab, 1, 2)
	recirc := cell(t, tab, 2, 2)
	if noD4 <= 0 || recirc <= 0 {
		t.Errorf("ablations show no violations: nod4=%v recirc=%v", noD4, recirc)
	}
}

func TestD3SteeringShape(t *testing.T) {
	tab := D3Steering(tiny)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Light row: recirculation beats naive; crossover row: it does not.
	if tab.Rows[0][6] != "false" {
		t.Errorf("light config should keep recirc above naive: %v", tab.Rows[0])
	}
	if tab.Rows[3][6] != "true" {
		t.Errorf("crossover config should drop recirc below naive: %v", tab.Rows[3])
	}
	// MP5 must beat recirculation everywhere.
	for _, row := range tab.Rows {
		mp5T, _ := strconv.ParseFloat(row[1], 64)
		recT, _ := strconv.ParseFloat(row[2], 64)
		if mp5T <= recT {
			t.Errorf("%s: mp5 %v <= recirc %v", row[0], mp5T, recT)
		}
	}
}

func TestFig7dLineRateAt128B(t *testing.T) {
	tab := Fig7d(tiny)
	for _, row := range tab.Rows {
		if row[0] == "64" {
			continue
		}
		for col := 1; col <= 4; col++ {
			v, _ := strconv.ParseFloat(row[col], 64)
			if v < 0.99 {
				t.Errorf("packet size %s col %d: %.3f below line rate", row[0], col, v)
			}
		}
	}
}

func TestFig7aMonotonicPressure(t *testing.T) {
	tab := Fig7a(tiny)
	first := cell(t, tab, 0, 1)
	last := cell(t, tab, len(tab.Rows)-1, 1)
	if first < 0.99 {
		t.Errorf("single pipeline must hit line rate, got %.3f", first)
	}
	if last >= first {
		t.Errorf("throughput should decay with pipeline count: %0.3f -> %0.3f", first, last)
	}
	if last < 0.5 {
		t.Errorf("decay too aggressive (paper: ~25%% from 1 to 16): %.3f", last)
	}
}

func TestRunSynthRecordsViolations(t *testing.T) {
	r := RunSynth(SynthConfig{
		Arch: core.ArchMP5NoD4, Pipelines: 4, Stateful: 2,
		Pattern: workload.Uniform, Packets: 4000, Seed: 1, Record: true,
	})
	if r.ViolationFraction <= 0 {
		t.Error("no violations recorded for no-D4")
	}
}

// TestTableFormatMarkdown pins the one rendering: bold title, note, header,
// dash row, cells padded to the column width, and a '|' in a cell escaped.
func TestTableFormatMarkdown(t *testing.T) {
	tab := &Table{
		Title:  "x",
		Note:   "a note",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"wide-cell", "1"}, {"a|b", "2"}},
	}
	want := "**x**\n\na note\n\n" +
		"| a         | long-header |\n" +
		"| --------- | ----------- |\n" +
		"| wide-cell | 1           |\n" +
		"| a\\|b      | 2           |\n"
	if got := tab.Format(); got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
}
