package report

import (
	"strings"
	"testing"

	"breakband/internal/core/breakdown"
	"breakband/internal/core/model"
	"breakband/internal/core/whatif"
	"breakband/internal/stats"
)

func TestTableRender(t *testing.T) {
	tb := &Table{Title: "T", Headers: []string{"a", "b"}}
	tb.AddRow("x", "1")
	tb.AddRow("longer", "2")
	out := tb.String()
	for _, want := range []string{"T\n", "a", "b", "x", "longer", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header and rows must be aligned to the same width.
	if len(lines[1]) == 0 || len(lines) != 5 {
		t.Errorf("unexpected layout: %q", lines)
	}
}

func TestTableRowArity(t *testing.T) {
	tb := &Table{Headers: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Error("wrong arity row did not panic")
		}
	}()
	tb.AddRow("only one")
}

func TestCSV(t *testing.T) {
	tb := &Table{Headers: []string{"name", "value"}}
	tb.AddRow("plain", "1")
	tb.AddRow("with,comma", `with"quote`)
	csv := tb.CSV()
	if !strings.Contains(csv, "name,value\n") {
		t.Error("csv header missing")
	}
	if !strings.Contains(csv, `"with,comma"`) || !strings.Contains(csv, `"with""quote"`) {
		t.Errorf("csv escaping broken:\n%s", csv)
	}
}

func TestBar(t *testing.T) {
	b := breakdown.New("demo",
		breakdown.Part{Label: "x", Ns: 30},
		breakdown.Part{Label: "y", Ns: 70},
	)
	out := Bar(b, 50)
	if !strings.Contains(out, "demo (100.00 ns)") {
		t.Errorf("title missing:\n%s", out)
	}
	// The bar body must be exactly the requested width.
	start := strings.Index(out, "[")
	end := strings.Index(out, "]")
	if end-start-1 != 50 {
		t.Errorf("bar width = %d, want 50", end-start-1)
	}
	if !strings.Contains(out, "x 30.00%") || !strings.Contains(out, "y 70.00%") {
		t.Errorf("legend missing:\n%s", out)
	}
}

// TestBarNegativePart: a component estimated as a difference of noisy
// means can be negative (Table 1's 2.19 ns "MPI_Isend in UCP" under noise).
// It must render with no cells and keep its legend entry, not panic.
func TestBarNegativePart(t *testing.T) {
	b := breakdown.New("noisy",
		breakdown.Part{Label: "MPICH", Ns: 27.98},
		breakdown.Part{Label: "UCP", Ns: -1.70},
	)
	out := Bar(b, 60)
	start := strings.Index(out, "[")
	end := strings.Index(out, "]")
	if end-start-1 != 60 {
		t.Errorf("bar width = %d, want 60:\n%s", end-start-1, out)
	}
	if strings.Contains(out[start:end], "=") {
		t.Errorf("negative part drew cells:\n%s", out)
	}
	if !strings.Contains(out, "= UCP -6.47% (-1.70 ns)") {
		t.Errorf("negative part's legend missing:\n%s", out)
	}
}

func TestBars(t *testing.T) {
	c := model.Paper()
	out := Bars(breakdown.Fig14HLPvsLLP(c), 40)
	if strings.Count(out, "[") != 3 {
		t.Errorf("expected 3 bars:\n%s", out)
	}
}

func TestHistogramText(t *testing.T) {
	h := stats.NewHistogram(0, 100, 4)
	for _, v := range []float64{10, 10, 30, 150} {
		h.Add(v)
	}
	out := HistogramText(h, 20)
	if !strings.Contains(out, "#") {
		t.Error("no bars rendered")
	}
	if !strings.Contains(out, "over range") {
		t.Error("over-range note missing")
	}
}

func TestSeriesTable(t *testing.T) {
	c := model.Paper()
	tbl := SeriesTable("fig17d", whatif.Fig17dNetworkLatency(c))
	out := tbl.String()
	for _, want := range []string{"Wire", "Switch", "10%", "90%", "5.45%"} {
		if !strings.Contains(out, want) {
			t.Errorf("series table missing %q:\n%s", want, out)
		}
	}
}

func TestSeriesChart(t *testing.T) {
	c := model.Paper()
	out := SeriesChart("fig17a", whatif.Fig17aCPUInjection(c), 10)
	for _, want := range []string{"fig17a", "a = HLP", "b = LLP", "overhead reduction"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
}

func TestSortedKeys(t *testing.T) {
	keys := SortedKeys(map[string]float64{"b": 1, "a": 2, "c": 3})
	if len(keys) != 3 || keys[0] != "a" || keys[2] != "c" {
		t.Errorf("keys = %v", keys)
	}
}
