// Command experiments regenerates the paper's evaluation tables and
// figures on the built-in dataset stand-ins.
//
// Usage:
//
//	experiments -table 2           # Table II on the quick configuration
//	experiments -fig 7 -full       # Figure 7 on the full sweep
//	experiments -all               # everything, quick configuration
//	experiments -ablation ordering # one of the DESIGN.md ablations
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	var (
		table    = flag.Int("table", 0, "paper table number to regenerate (1-8)")
		fig      = flag.Int("fig", 0, "paper figure number to regenerate (6 or 7)")
		ablation = flag.String("ablation", "", "ablation to run: pruning, ordering, parallel, leafcount, bitset, swap")
		all      = flag.Bool("all", false, "run every table, figure and ablation")
		full     = flag.Bool("full", false, "full sweep (all datasets, k=3..6) instead of the quick subset")
		shapes   = flag.Bool("shapes", false, "verify the paper's qualitative claims (exits non-zero on failure)")
		updates  = flag.Bool("updates", false, "update-path throughput: mixed workload, single-op vs batched")
		workers  = flag.Int("workers", 0, "worker-pool size for every parallel phase (0 = GOMAXPROCS, 1 = serial)")
		unified  = flag.String("unified", "on", "on|off: word-packed kernel and stamped first level of the unified enumeration core; off runs the merge recursion only (ablation row for -updates)")
	)
	flag.Parse()

	cfg := experiments.Quick(os.Stdout)
	if *full {
		cfg = experiments.Full(os.Stdout)
	}
	cfg.Workers = *workers
	switch *unified {
	case "on":
	case "off":
		cfg.DisableUnified = true
	default:
		fatal(fmt.Errorf("-unified must be on or off, got %q", *unified))
	}

	type job struct {
		name string
		run  func(experiments.Config) error
	}
	tables := map[int]job{
		1: {"Table I", experiments.Table1},
		2: {"Table II", experiments.Table2},
		3: {"Table III", experiments.Table3},
		4: {"Table IV", experiments.Table4},
		5: {"Table V", experiments.Table5},
		6: {"Table VI", experiments.Table6},
		7: {"Table VII", experiments.Table7},
		8: {"Table VIII", experiments.Table8},
	}
	figs := map[int]job{
		6: {"Figure 6", experiments.Fig6},
		7: {"Figure 7", experiments.Fig7},
	}
	ablations := map[string]job{
		"pruning":   {"Ablation pruning", experiments.AblationPruning},
		"ordering":  {"Ablation ordering", experiments.AblationOrdering},
		"parallel":  {"Ablation parallel", experiments.AblationParallel},
		"leafcount": {"Ablation leafcount", experiments.AblationLeafCount},
		"bitset":    {"Ablation bitset", experiments.AblationBitset},
		"swap":      {"Ablation swap", experiments.AblationSwap},
	}

	var jobs []job
	switch {
	case *shapes:
		jobs = append(jobs, job{"Shape checks", experiments.PrintShapes})
	case *updates:
		jobs = append(jobs, job{"Update throughput", experiments.UpdateThroughput})
	case *all:
		for i := 1; i <= 8; i++ {
			jobs = append(jobs, tables[i])
			if i == 1 {
				jobs = append(jobs, figs[6]) // paper order: Fig 6 follows Table I
			}
		}
		jobs = append(jobs, figs[7])
		for _, name := range []string{"pruning", "ordering", "parallel", "leafcount", "bitset", "swap"} {
			jobs = append(jobs, ablations[name])
		}
	case *table != 0:
		j, ok := tables[*table]
		if !ok {
			fatal(fmt.Errorf("no table %d (want 1-8)", *table))
		}
		jobs = append(jobs, j)
	case *fig != 0:
		j, ok := figs[*fig]
		if !ok {
			fatal(fmt.Errorf("no figure %d (want 6 or 7)", *fig))
		}
		jobs = append(jobs, j)
	case *ablation != "":
		j, ok := ablations[*ablation]
		if !ok {
			fatal(fmt.Errorf("no ablation %q", *ablation))
		}
		jobs = append(jobs, j)
	default:
		flag.Usage()
		os.Exit(2)
	}

	for i, j := range jobs {
		if i > 0 {
			fmt.Println()
		}
		if err := j.run(cfg); err != nil {
			fatal(fmt.Errorf("%s: %w", j.name, err))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
