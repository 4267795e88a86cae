package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runOutput is one child run's metrics and diagnostics.
type runOutput struct {
	metrics map[string]float64
	diags   map[string]float64
}

// steadiness runs two sets of n untraced runs of this binary per workload,
// alternated run by run (A1 B1 A2 B2 ...), with seed i for both runs of
// pair i. For every end-to-end metric it prints each set's median and
// quartiles, the spread (interquartile range over median) and whether the
// second set's median is within the metric's bound of the first's. It
// then lists the diagnostics with their spread over all runs.
func steadiness(n, seconds int, names []string) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	agreeAll := true
	for _, w := range names {
		sets := [2][]runOutput{}
		for i := range n {
			for s := range 2 {
				out, err := childRun(self, w, int64(i+1), seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d set %c: %w", w, i+1, 'A'+s, err)
				}
				sets[s] = append(sets[s], out)
			}
		}
		fmt.Printf("== %s: %d runs per set, alternated\n", w, n)
		for _, m := range spec.EndToEnd {
			var med [2]float64
			for s := range 2 {
				vals := column(sets[s], m.Name, false)
				q1, q2, q3 := quartiles(vals)
				med[s] = q2
				fmt.Printf("%-16s set %c median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f\n", m.Name, 'A'+s, q2, q1, q3, (q3-q1)/q2)
			}
			worse := (med[1] - med[0]) / med[0]
			if m.Better == "higher" {
				worse = -worse
			}
			agree := math.Abs(worse) <= m.Bound
			agreeAll = agreeAll && agree
			fmt.Printf("%-16s B vs A %+.4f, bound %.3f: %s\n", m.Name, worse, m.Bound, map[bool]string{true: "agree", false: "DISAGREE"}[agree])
		}
		all := append(append([]runOutput(nil), sets[0]...), sets[1]...)
		var diags []string
		for d := range all[0].diags {
			diags = append(diags, d)
		}
		sort.Strings(diags)
		for _, d := range diags {
			q1, q2, q3 := quartiles(column(all, d, true))
			fmt.Printf("diag %-26s median %-12.6g spread %.4f\n", d, q2, (q3-q1)/q2)
		}
	}
	if !agreeAll {
		return fmt.Errorf("the two sets disagree beyond a bound")
	}
	return nil
}

func column(runs []runOutput, name string, diag bool) []float64 {
	var out []float64
	for _, r := range runs {
		m := r.metrics
		if diag {
			m = r.diags
		}
		if v, ok := m[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// childRun runs one untraced workload run and parses its output.
func childRun(self, w string, seed int64, seconds int) (runOutput, error) {
	cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return runOutput{}, err
	}
	ro := runOutput{metrics: map[string]float64{}, diags: map[string]float64{}}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		last = line
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "diag" {
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				ro.diags[f[1]] = v
			}
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return runOutput{}, fmt.Errorf("parse result: %w", err)
	}
	if !res.Correct || res.Failed > 0 {
		return runOutput{}, fmt.Errorf("run failed: correct=%v failed=%d", res.Correct, res.Failed)
	}
	for name, m := range res.Metrics {
		ro.metrics[name] = m.Value
	}
	return ro, nil
}
