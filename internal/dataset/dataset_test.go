package dataset

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/kclique"
)

func TestRegistryComplete(t *testing.T) {
	names := Names()
	want := []string{"FTB", "HST", "FB", "FBP", "FBW", "DS", "SK", "FL", "LJ", "OR"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
	smalls := SmallNames()
	wantSmall := []string{"Swallow", "Tortoise", "Lizard", "Football", "Voles", "Hamsterster"}
	if len(smalls) != len(wantSmall) {
		t.Fatalf("SmallNames() = %v, want %v", smalls, wantSmall)
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("NOPE"); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestSmallDatasetsLoadAndMatchScale(t *testing.T) {
	for _, name := range SmallNames() {
		s, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := Load(name)
		if err != nil {
			t.Fatal(err)
		}
		// Small stand-ins target the paper's actual n (±15%).
		lo, hi := int(float64(s.PaperN)*0.85), int(float64(s.PaperN)*1.15)
		if g.N() < lo || g.N() > hi {
			t.Errorf("%s: n = %d, paper %d", name, g.N(), s.PaperN)
		}
	}
}

func TestTableIDatasetsAreCliqueRichAndOrdered(t *testing.T) {
	if testing.Short() {
		t.Skip("loads every dataset")
	}
	prevEdges := -1
	small := map[string]bool{"FTB": true, "HST": true, "FB": true}
	for _, name := range Names() {
		g, err := Load(name)
		if err != nil {
			t.Fatal(err)
		}
		if g.N() == 0 || g.M() == 0 {
			t.Fatalf("%s: empty graph", name)
		}
		// Every stand-in must contain triangles (all experiments use k>=3).
		tri, _ := kclique.ScoreGraph(g, 3, 0)
		if tri == 0 {
			t.Fatalf("%s: no triangles", name)
		}
		// The registry preserves the small → large progression for the
		// big datasets (FTB, HST, FB are the paper's small tier).
		if !small[name] {
			if g.M() < prevEdges/4 {
				t.Errorf("%s: edge count %d breaks the rough size progression", name, g.M())
			}
			if g.M() > prevEdges {
				prevEdges = g.M()
			}
		}
	}
}

func TestDataDirOverride(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(dir+"/FTB.txt", []byte("0 1\n1 2\n0 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Setenv(DataDirEnv, dir)
	g, err := Load("FTB")
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("override ignored: n=%d m=%d", g.N(), g.M())
	}
	// Missing file for another name falls back to the stand-in.
	g2, err := Load("HST")
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() < 100 {
		t.Fatal("fallback stand-in not used")
	}
	// A malformed file surfaces a parse error.
	if err := os.WriteFile(dir+"/HST.txt", []byte("not numbers\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load("HST"); err == nil {
		t.Fatal("expected parse error from malformed override")
	}
	// A file that exists but cannot be opened (a self-referential symlink
	// fails with ELOOP, even for root) is an error naming the path, not a
	// silent fallback to the stand-in.
	loop := filepath.Join(dir, "FB.txt")
	if err := os.Symlink("FB.txt", loop); err != nil {
		t.Skipf("symlinks unsupported here: %v", err)
	}
	g3, err := Load("FB")
	if err == nil {
		t.Fatalf("unopenable override fell back to a %d-node stand-in", g3.N())
	}
	if !strings.Contains(err.Error(), loop) {
		t.Fatalf("error %q does not name %s", err, loop)
	}
}

func TestDeterministicLoads(t *testing.T) {
	a, err := Load("FTB")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Load("FTB")
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatal("FTB loads differ")
	}
	a.Edges(func(u, v int32) bool {
		if !b.HasEdge(u, v) {
			t.Fatal("FTB edges differ across loads")
		}
		return true
	})
}
