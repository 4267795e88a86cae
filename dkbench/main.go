// Command dkbench is the repository's end-to-end benchmark. It mounts the
// disjoint k-clique stack in-process the way cmd/dkserver does, drives
// one workload, checks every output, and prints the workload's metrics.
//
// Usage, from the repository root (dkbench/run.sh builds and runs it):
//
//	dkbench --workload static|ingest|mixed --seed N --seconds S --trace 0|1
//	dkbench --steady 5 --seconds S [--workloads static,ingest,mixed]
//
// Graphs, op streams and arrival schedules are generated from --seed
// before any timing, so one seed gives one set of inputs. With --trace 0
// the last line of standard output is a JSON object holding the
// end-to-end metrics; with --trace 1 the measured phase runs once
// untraced and once with spans around every call into a layer, then the
// layer replay times each layer's public functions on the recorded
// inputs, and the JSON holds the per-layer metrics. --steady runs two
// sets of untraced runs of this binary, alternated run by run, and
// reports whether they agree within the bounds of BENCHMARK.json.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// k is the clique size of every workload (the repository's Fig. 6/7
// setting).
const k = 4

// setupRepeats is how many times a run builds its initial state; setup_s
// is the median, since one sub-second build spreads widely between runs.
const setupRepeats = 5

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one run of one workload.
type bench struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	workers  int
	dir      string // scratch store directory inside the checkout
	origin   time.Time

	e2e   map[string]metric
	layer map[string]metric
	diag  map[string]metric // printed, never gated

	attempted, failed int64
	mu                sync.Mutex // guards checkErrs; checks run on client goroutines
	checkErrs         []error

	spans []span // spans of the traced pass, written at exit
}

func (b *bench) setE2E(name, unit string, v float64)   { b.e2e[name] = metric{v, unit} }
func (b *bench) setLayer(name, unit string, v float64) { b.layer[name] = metric{v, unit} }
func (b *bench) setDiag(name, unit string, v float64)  { b.diag[name] = metric{v, unit} }

// check records a failed output check; the run then reports correct=false.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.mu.Lock()
		b.checkErrs = append(b.checkErrs, fmt.Errorf(format, args...))
		b.mu.Unlock()
	}
}

// count adds attempted and failed operations to the run's totals.
func (b *bench) count(attempted, failed int) {
	b.attempted += int64(attempted)
	b.failed += int64(failed)
}

// scenario is one benchmark workload (BENCHMARK.json says why each was
// chosen). It performs set-up and the measured phase (untraced, then traced
// when the run is traced), fills the end-to-end metrics and the checks, and
// returns the inputs the layer replay needs.
type scenario func(ctx context.Context, b *bench) (*replayInput, error)

var scenarios = map[string]scenario{
	"static": runStatic,
	"ingest": runIngest,
	"mixed":  runMixed,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: static, ingest or mixed")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "nominal length of the measured phase in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		steady  = flag.Int("steady", 0, "steadiness mode: runs per set (two sets, alternated)")
		wls     = flag.String("workloads", "static,ingest,mixed", "workloads of the steadiness mode")
	)
	flag.Parse()
	if *steady > 0 {
		if err := steadiness(*steady, *seconds, strings.Split(*wls, ",")); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := scenarios[*name]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fatal(errors.New("--seconds must be >= 1 and --trace 0 or 1"))
	}
	b := &bench{
		workload: *name, seed: *seed, seconds: *seconds, traced: *trace == 1,
		workers: runtime.GOMAXPROCS(0), origin: time.Now(),
		e2e: map[string]metric{}, layer: map[string]metric{}, diag: map[string]metric{},
	}
	b.dir = filepath.Join(".bench_build", "run", fmt.Sprintf("%s-%d-%d", b.workload, b.seed, os.Getpid()))
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		fatal(err)
	}
	res, err := b.execute(w)
	os.RemoveAll(b.dir)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// execute runs the workload, and in a traced run the layer replay, and
// assembles the result.
func (b *bench) execute(w scenario) (*result, error) {
	ctx := context.Background()
	b.hostRecord()
	cpu0 := cpuTime()
	in, err := w(ctx, b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.workload, err)
	}
	if b.traced {
		if err := b.replay(ctx, in); err != nil {
			return nil, fmt.Errorf("%s: layer replay: %w", b.workload, err)
		}
		if err := b.writeSpans(); err != nil {
			return nil, err
		}
	}
	b.setDiag("run.cpu_s", "s", (cpuTime() - cpu0).Seconds())
	b.report()
	res := &result{
		Correct:   len(b.checkErrs) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.e2e,
	}
	if b.traced {
		res.Metrics = b.layer
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return res, nil
}

// report prints every metric, diagnostic and failed check, one per line.
func (b *bench) report() {
	print := func(kind string, m map[string]metric) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%-6s %-28s %14.6g %s\n", kind, n, m[n].Value, m[n].Unit)
		}
	}
	fmt.Printf("workload %s seed %d seconds %d trace %v: attempted %d failed %d\n",
		b.workload, b.seed, b.seconds, b.traced, b.attempted, b.failed)
	if b.traced {
		print("layer", b.layer)
	} else {
		print("e2e", b.e2e)
	}
	print("diag", b.diag)
	for i, err := range b.checkErrs {
		if i == 10 {
			fmt.Printf("CHECK FAILED: %d more\n", len(b.checkErrs)-i)
			break
		}
		fmt.Println("CHECK FAILED:", err)
	}
}

// traceOverhead reports how much slower the traced pass's median request
// was than the untraced pass's, in percent.
func (b *bench) traceOverhead(untraced, traced *latencies) {
	u, t := untraced.pct(50), traced.pct(50)
	b.setLayer("trace.overhead_pct", "%", 100*(t-u)/u)
}

// reportLatency reports the untraced pass's request latency: the p50, the
// p90 and the highest percentile with at least ten samples beyond it as
// diagnostics, and in a traced run the p99 as a per-layer metric. None is
// gated: between identical runs on a shared 2-vCPU host the p50 moved by
// up to a fifth, the tails by more, while CPU per request held tighter.
func (b *bench) reportLatency(lat *latencies) {
	b.setDiag("req_p50_ms", "ms", ms(lat.pct(50)))
	b.setDiag("req_p90_ms", "ms", ms(lat.pct(90)))
	if p := tailPercentile(lat.attempted()); p > 90 {
		b.setDiag(fmt.Sprintf("req_p%v_ms", p), "ms", ms(lat.pct(p)))
	}
	b.setLayer("harness.req_p99_ms", "ms", ms(lat.pct(99)))
}

// hostRecord prints the hardware and toolchain the numbers were taken on,
// plus two fixed probes of this host: the median 4 KB write+fsync on the
// store's filesystem and the median oversleep of a 200 µs sleep.
func (b *bench) hostRecord() {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	kernel := "unknown"
	var uts syscall.Utsname
	if syscall.Uname(&uts) == nil {
		var sb strings.Builder
		for _, c := range uts.Release {
			if c == 0 {
				break
			}
			sb.WriteByte(byte(c))
		}
		kernel = sb.String()
	}
	fsync := probeFsync(b.dir)
	var over []float64
	for range 50 {
		t := time.Now()
		time.Sleep(200 * time.Microsecond)
		over = append(over, float64(time.Since(t)-200*time.Microsecond)/1e3)
	}
	fmt.Printf("host nproc=%d gomaxprocs=%d cpu=%q kernel=%s go=%s fsync4k_ms=%.3f sleep200us_over_us=%.1f\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), model, kernel, runtime.Version(), fsync, median(over))
}

// probeFsync returns the median milliseconds of a 4 KB write plus fsync
// in dir, or NaN when the probe file cannot be written.
func probeFsync(dir string) float64 {
	f, err := os.Create(filepath.Join(dir, "fsync.probe"))
	if err != nil {
		return math.NaN()
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	var ms []float64
	for range 20 {
		t := time.Now()
		if _, err := f.Write(buf); err != nil {
			return math.NaN()
		}
		if err := f.Sync(); err != nil {
			return math.NaN()
		}
		ms = append(ms, float64(time.Since(t))/1e6)
	}
	return median(ms)
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB returns the live heap in MB after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// repeatSetup runs build n times back to back and returns the median wall
// time in seconds; every result but the last is torn down with drop.
func repeatSetup[T any](n int, build func() (T, error), drop func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := range n {
		runtime.GC()
		t := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(t).Seconds())
		if i < n-1 {
			drop(v)
		}
		last = v
	}
	return last, median(secs), nil
}

// writeSpans saves the traced pass's spans as JSON lines in the checkout's
// build directory, next to the run's scratch stores.
func (b *bench) writeSpans() error {
	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range b.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Printf("spans: %d written to %s\n", len(b.spans), path)
	return f.Close()
}

// ms, us and ns convert seconds.
func ms(s float64) float64 { return s * 1e3 }
func us(s float64) float64 { return s * 1e6 }
func ns(s float64) float64 { return s * 1e9 }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dkbench:", err)
	os.Exit(1)
}
