package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

func TestFormatDuration(t *testing.T) {
	cases := []struct {
		in   time.Duration
		want string
	}{
		{500 * time.Nanosecond, "500ns"},
		{250 * time.Microsecond, "250µs"},
		{3500 * time.Microsecond, "3.5ms"},
		{2*time.Second + 340*time.Millisecond, "2.34s"},
	}
	for _, tc := range cases {
		if got := formatDuration(tc.in); got != tc.want {
			t.Errorf("formatDuration(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestRunOutcomeCells(t *testing.T) {
	oot := runOutcome{status: "OOT"}
	if oot.cellSize() != "OOT" || oot.cellTime() != "OOT" || oot.cellMem() != "OOT" || oot.cellDelta(5) != "OOT" {
		t.Error("OOT must propagate to every cell")
	}
	ok := runOutcome{
		res:     &core.Result{Cliques: [][]int32{{0, 1, 2}, {3, 4, 5}}, K: 3},
		elapsed: 1500 * time.Microsecond,
		peakMem: 3 << 20,
	}
	if ok.cellSize() != "2" {
		t.Errorf("cellSize = %q", ok.cellSize())
	}
	if ok.cellDelta(1) != "+1" || ok.cellDelta(3) != "-1" {
		t.Errorf("cellDelta wrong: %q / %q", ok.cellDelta(1), ok.cellDelta(3))
	}
	if ok.cellTime() != "1.5ms" {
		t.Errorf("cellTime = %q", ok.cellTime())
	}
	if ok.cellMem() != "3.0" {
		t.Errorf("cellMem = %q", ok.cellMem())
	}
}

func TestRunAlgOutcomes(t *testing.T) {
	g, err := dataset.Load("FTB")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Budget: 10 * time.Second, OPTBudget: 10 * time.Second}
	out := runAlg(g, 3, core.LP, &cfg)
	if out.status != "" || out.res == nil || out.res.Size() == 0 {
		t.Fatalf("LP outcome: %+v", out)
	}
	// Tiny budget forces OOT.
	cfg2 := Config{Budget: time.Nanosecond, OPTBudget: time.Nanosecond}
	out2 := runAlg(g, 3, core.GC, &cfg2)
	if out2.status != "OOT" {
		t.Fatalf("status = %q, want OOT", out2.status)
	}
	// Tiny clique cap forces OOM.
	cfg3 := Config{Budget: 10 * time.Second, MaxStoredCliques: 1}
	out3 := runAlg(g, 3, core.GC, &cfg3)
	if out3.status != "OOM" {
		t.Fatalf("status = %q, want OOM", out3.status)
	}
}

func TestNsCell(t *testing.T) {
	if got := nsCell(updateResult{avgNs: 1234, p99Ns: 9999}); got != "1234 (9999)" {
		t.Errorf("nsCell = %q", got)
	}
	if nsCell(updateResult{err: errFake{}}) != "ERR" {
		t.Error("nsCell error wrong")
	}
}

func TestPercentile(t *testing.T) {
	s := []int64{50, 10, 40, 20, 30}
	if got := percentile(s, 0.5); got != 30 {
		t.Errorf("median = %d, want 30", got)
	}
	if got := percentile(s, 1.0); got != 50 {
		t.Errorf("max = %d, want 50", got)
	}
	if got := percentile(s, 0.01); got != 10 {
		t.Errorf("p1 = %d, want 10", got)
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty percentile should be 0")
	}
	one := []int64{7}
	if percentile(one, 0.99) != 7 {
		t.Error("singleton percentile")
	}
}

type errFake struct{}

func (errFake) Error() string { return "fake" }

func TestLoadAllUnknown(t *testing.T) {
	if _, err := loadAll([]string{"NOPE"}); err == nil {
		t.Fatal("expected unknown dataset error")
	}
}

func TestTableOutputsAligned(t *testing.T) {
	// Table rows must all carry the dataset name and parse as columns.
	var out strings.Builder
	cfg := tinyConfig(&out)
	cfg.Ks = []int{3}
	if err := Table2(cfg); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 3 {
		t.Fatalf("too few lines:\n%s", out.String())
	}
	dataRow := lines[2]
	if !strings.HasPrefix(dataRow, "FTB") {
		t.Fatalf("data row %q", dataRow)
	}
	if len(strings.Fields(dataRow)) != 6 {
		t.Fatalf("want 6 columns, got %q", dataRow)
	}
}
