package experiments

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dynamic"
	"repro/internal/workload"
)

// ShapeReport lists the paper's qualitative claims and whether this build
// reproduces them on the configured datasets. It is the executable form of
// EXPERIMENTS.md: `go run ./cmd/experiments -shapes` (or the
// VerifyShapes test) fails loudly if a code change breaks a headline
// result rather than a unit invariant.
type ShapeReport struct {
	Checks []ShapeCheck
}

// ShapeCheck is one verified claim.
type ShapeCheck struct {
	Name   string
	Detail string
	OK     bool
}

// Failed returns the failing checks.
func (r *ShapeReport) Failed() []ShapeCheck {
	var out []ShapeCheck
	for _, c := range r.Checks {
		if !c.OK {
			out = append(out, c)
		}
	}
	return out
}

// VerifyShapes measures the paper's headline claims on the configured
// datasets (intended: the quick configuration) and returns a report.
func VerifyShapes(cfg Config) (*ShapeReport, error) {
	rep := &ShapeReport{}
	add := func(name string, ok bool, detail string, args ...any) {
		rep.Checks = append(rep.Checks, ShapeCheck{Name: name, Detail: fmt.Sprintf(detail, args...), OK: ok})
	}
	graphs, err := loadAll(cfg.Datasets)
	if err != nil {
		return nil, err
	}
	// Use the largest configured dataset for timing-sensitive claims.
	big := cfg.Datasets[len(cfg.Datasets)-1]
	g := graphs[big]
	k := cfg.Ks[len(cfg.Ks)-1]
	if k > 4 {
		k = 4 // keep the shape run fast
	}

	hg := runAlg(g, k, core.HG, &cfg)
	l := runAlg(g, k, core.L, &cfg)
	lp := runAlg(g, k, core.LP, &cfg)
	gc := runAlg(g, k, core.GC, &cfg)
	if hg.status != "" || l.status != "" || lp.status != "" || gc.status != "" {
		return nil, fmt.Errorf("shape run hit a budget on %s k=%d", big, k)
	}

	// Timing claims compare medians of shapeTimingRuns runs, taken
	// outside runAlg's heap sampler (it stops the world every 2ms), so
	// they measure the algorithms rather than one scheduling hiccup.
	var timingErr error
	solve := func(alg core.Algorithm) time.Duration {
		opt := core.Options{K: k, Algorithm: alg, Workers: cfg.Workers, Budget: cfg.Budget,
			MaxStoredCliques: cfg.MaxStoredCliques}
		return medianTime(func() time.Duration {
			t0 := time.Now()
			if _, err := core.Find(g, opt); err != nil {
				timingErr = err
			}
			return time.Since(t0)
		})
	}
	hgT, lpT, gcT := solve(core.HG), solve(core.LP), solve(core.GC)
	if timingErr != nil {
		return nil, fmt.Errorf("shape timing run on %s k=%d: %w", big, k, timingErr)
	}

	// Claim 1 (§VI-B): HG is the fastest method.
	add("HG fastest", hgT <= lpT && hgT <= gcT,
		"%s k=%d: HG %v, LP %v, GC %v (median of %d)", big, k, hgT, lpT, gcT, shapeTimingRuns)

	// Claim 2 (Table II): LP quality >= HG quality.
	add("LP quality >= HG", lp.res.Size() >= hg.res.Size(),
		"%s k=%d: LP %d vs HG %d", big, k, lp.res.Size(), hg.res.Size())

	// Claim 3 (§VI-A note): GC and LP sizes nearly identical (ties only).
	diff := gc.res.Size() - lp.res.Size()
	if diff < 0 {
		diff = -diff
	}
	add("GC ≈ LP", diff*100 <= lp.res.Size()+100, // within 1% (+1 slack)
		"%s k=%d: GC %d vs LP %d", big, k, gc.res.Size(), lp.res.Size())

	// Claim 4 (paper analysis of L vs LP): identical result sets.
	add("L == LP", l.res.Size() == lp.res.Size(),
		"%s k=%d: L %d vs LP %d", big, k, l.res.Size(), lp.res.Size())

	// Claim 5 (Table IV): on a small dataset, LP is close to the exact
	// optimum (the paper's worst case is single-digit percent on community
	// graphs; allow 25% for tiny stand-ins).
	smallName := cfg.SmallDatasets[0]
	gs, err := dataset.Load(smallName)
	if err != nil {
		return nil, err
	}
	lpSmall := runAlg(gs, 3, core.LP, &cfg)
	exact, exErr := core.ExactDirect(gs, core.Options{K: 3, Budget: cfg.OPTBudget})
	if exErr == nil && lpSmall.status == "" && exact.Size() > 0 {
		add("LP near-optimal", 4*lpSmall.res.Size() >= 3*exact.Size(),
			"%s: LP %d vs exact %d", smallName, lpSmall.res.Size(), exact.Size())
	}

	// Claim 6 (Table VII): the candidate index is much smaller than the
	// clique population.
	e, err := dynamic.NewWorkers(g, k, lp.res.Cliques, cfg.Workers)
	if err != nil {
		return nil, err
	}
	add("index << cliques", uint64(e.NumCandidates()) < lp.res.TotalKCliques,
		"%s k=%d: %d candidates vs %d cliques", big, k, e.NumCandidates(), lp.res.TotalKCliques)

	// Claim 7 (Fig 7): an average update is at least 100x cheaper than a
	// rebuild (the paper's gap is millions on full-size graphs). Each
	// timed run applies the stream to a fresh engine built from the same
	// LP result; the last one carries on to claim 8.
	ops := workload.Mixed(g, cfg.UpdateCount, 424).Stream
	stream := medianTime(func() time.Duration {
		fresh, err := dynamic.NewWorkers(g, k, lp.res.Cliques, cfg.Workers)
		if err != nil {
			timingErr = err
			return 0
		}
		e = fresh
		t0 := time.Now()
		for _, op := range ops {
			if op.Insert {
				e.InsertEdge(op.U, op.V)
			} else {
				e.DeleteEdge(op.U, op.V)
			}
		}
		return time.Since(t0)
	})
	if timingErr != nil {
		return nil, timingErr
	}
	perOp := stream / time.Duration(len(ops))
	add("update << rebuild", perOp*100 < lpT,
		"%s k=%d: %v per update vs %v rebuild (median of %d)", big, k, perOp, lpT, shapeTimingRuns)

	// Claim 8 (Table VIII): quality after updates stays within ~1% of a
	// from-scratch rebuild on the mutated graph (+2 absolute slack for
	// small graphs).
	rebuilt, err := core.Find(e.Graph().Snapshot(), core.Options{K: k, Algorithm: core.LP, Budget: cfg.Budget})
	if err != nil {
		return nil, err
	}
	drift := e.Size() - rebuilt.Size()
	if drift < 0 {
		drift = -drift
	}
	add("dynamic quality tracks rebuild", drift*100 <= rebuilt.Size()+200,
		"%s k=%d: maintained %d vs rebuild %d", big, k, e.Size(), rebuilt.Size())

	return rep, nil
}

// shapeTimingRuns is how many runs each timing claim takes the median of.
const shapeTimingRuns = 5

// medianTime returns the median of shapeTimingRuns durations reported by
// run.
func medianTime(run func() time.Duration) time.Duration {
	ts := make([]time.Duration, shapeTimingRuns)
	for i := range ts {
		ts[i] = run()
	}
	slices.Sort(ts)
	return ts[len(ts)/2]
}

// PrintShapes renders the report.
func PrintShapes(cfg Config) error {
	rep, err := VerifyShapes(cfg)
	if err != nil {
		return err
	}
	tw := newTab(cfg.Out)
	fmt.Fprintln(cfg.Out, "Shape checks: the paper's qualitative claims on this build")
	for _, c := range rep.Checks {
		status := "ok"
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\n", status, c.Name, c.Detail)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if failed := rep.Failed(); len(failed) > 0 {
		return fmt.Errorf("%d shape check(s) failed", len(failed))
	}
	return nil
}
