// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one workload — a vpserve child serving the
// workload's value stream, between two halves of the offline paper
// pipeline in this process — checks the outputs, and prints one JSON
// result as the last line of standard output:
//
//	perfbench -vpserve <binary> -workdir <dir> --workload serve-steady --seed 1 --seconds 15 --trace 0
//
// run.sh builds vpserve and this program from source and supplies
// -vpserve and -workdir; it runs from the root of the checkout, where
// BENCHMARK.json is. With --trace 0 the result carries the end-to-end
// metrics, with --trace 1 the per-layer metrics of a traced run.
// README.md in this directory describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload runs with.
type env struct {
	vpserve string
	workdir string
	seed    uint64
	seconds int
	traced  bool
	sp      *spans // nil unless traced
	res     *result

	mu          sync.Mutex
	servers     []*server // every vpserve child started
	stopped     bool      // stopAll ran: start no more servers
	interrupted bool      // a signal arrived: the handler ends the process
}

func (e *env) set(name string, v float64, unit string) {
	e.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// op counts one operation against attempted, and a failed one (an error,
// a refused connection, a mismatched or short tally) against failed.
func (e *env) op(err error) error {
	e.res.Attempted++
	if err != nil {
		e.res.Failed++
	}
	return err
}

// workloads are the serve parts; every run puts them between the two
// halves of the offline part.
var workloads = map[string]func(*env) error{
	"serve-steady": runSteady,
	"serve-growth": runGrowth,
}

func main() {
	vpserve := flag.String("vpserve", "", "vpserve binary built from this checkout")
	workdir := flag.String("workdir", "", "working directory for this run (removed at exit)")
	workload := flag.String("workload", "", "workload: serve-steady or serve-growth")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	printDigest := flag.Bool("print-digest", false, "print the digest of the offline pipeline's artifacts and exit")
	flag.Parse()

	if *printDigest {
		if err := writeDigest(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	run, ok := workloads[*workload]
	if !ok || *vpserve == "" || *workdir == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -vpserve, -workdir, --workload (serve-steady|serve-growth), --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatal(err)
	}
	e := &env{vpserve: *vpserve, workdir: *workdir, seed: *seed, seconds: *seconds,
		traced: *trace == 1, res: &result{Metrics: map[string]metric{}}}
	if e.traced {
		e.sp = newSpans()
	}
	// An interrupted run still stops its servers; Pdeathsig (see
	// startServer) covers a run that is killed outright.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		s := <-sig
		e.mu.Lock()
		e.interrupted = true
		e.mu.Unlock()
		e.stopAll()
		os.RemoveAll(*workdir)
		fmt.Fprintln(os.Stderr, "perfbench:", s)
		os.Exit(1)
	}()
	steal0, total0 := hostTicks()
	// The offline part runs while no server does; each part returns its
	// buffers before the next one allocates.
	off := &offline{}
	err := off.run(e, offlineHalf(e))
	if err == nil {
		debug.FreeOSMemory()
		err = run(e)
	}
	e.stopAll()
	if err == nil {
		debug.FreeOSMemory()
		err = off.run(e, offlineHalf(e))
	}
	if err == nil {
		err = off.report(e)
	}
	steal1, total1 := hostTicks()
	e.mu.Lock()
	interrupted := e.interrupted
	e.mu.Unlock()
	if interrupted {
		// What failed, failed because the servers were killed; print no
		// result and let the handler exit.
		select {}
	}
	os.RemoveAll(*workdir)
	if err == nil {
		err = checkSpec(e)
	}
	if err != nil {
		// The run could not finish: count it as a failed operation and
		// report what was measured.
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		e.res.Attempted++
		e.res.Failed++
	}
	e.res.Correct = e.res.Failed == 0 && e.res.Attempted > 0
	record := map[string]any{
		"workload": *workload, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"goos": runtime.GOOS, "goarch": runtime.GOARCH, "metrics": e.res.Metrics,
		"steal_pct": 100 * float64(steal1-steal0) / float64(max(total1-total0, 1)),
	}
	if e.traced {
		dir := filepath.Join(filepath.Dir(*workdir), "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err := e.sp.write(path, record); err != nil {
			fatal(err)
		}
	}
	if e.traced {
		self := e.sp.self()
		for _, name := range sortedKeys(self) {
			fmt.Printf("self %-32s %10.4f s\n", name, self[name])
		}
	}
	for _, name := range sortedKeys(e.res.Metrics) {
		m := e.res.Metrics[name]
		fmt.Printf("%-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	rec, _ := json.Marshal(record)
	fmt.Printf("record %s\n", rec)
	out, _ := json.Marshal(e.res)
	fmt.Println(string(out))
	if !e.res.Correct {
		os.Exit(1)
	}
}

// spec is the benchmark's definition, read from the root of the checkout
// the benchmark runs in.
const spec = "BENCHMARK.json"

// checkSpec asserts the run reported exactly the metrics, with their
// units, that spec lists for its mode: end_to_end untraced, per_layer
// traced.
func checkSpec(e *env) error {
	b, err := os.ReadFile(spec)
	if err != nil {
		return err
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		return fmt.Errorf("%s: %w", spec, err)
	}
	want := bj.EndToEnd
	if e.traced {
		want = bj.PerLayer
	}
	for _, m := range want {
		got, ok := e.res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s not reported", m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("metric %s reported in %s, %s names %s", m.Name, got.Unit, spec, m.Unit)
		}
	}
	if len(e.res.Metrics) != len(want) {
		return fmt.Errorf("reported %d metrics, %s names %d", len(e.res.Metrics), spec, len(want))
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// median returns the median of xs (xs is sorted in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}

// hostTicks returns the steal and the total CPU ticks of /proc/stat. On
// a virtual machine, steal is time the host ran something else while
// this guest wanted the CPU; the record carries its share of the run, the
// first thing to look at when a run reads slow.
func hostTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
