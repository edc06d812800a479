// Command perfbench is the repository's benchmark. It runs one workload
// from a single process against the bulkpim library, checks the
// workload's outputs, and prints every metric by name and unit, with a
// JSON result as its last line:
//
//	go run . --workload ycsb-timing --seed 1 --seconds 30 --trace 0
//
// (from this directory; perfbench/run.sh builds and runs it from the
// repository root). Workloads:
//
//	ycsb-timing  the Fig. 7 grid at quick scale, timing only
//	tpch-timing  the Fig. 8 grid (19 queries x 6 models) at SF 0.1
//	serve-warm   the HTTP daemon over a warm result cache, 2 clients
//
// Times are reported at a reference host speed (see ref.go), so that
// the drift of a shared host's speed does not read as a change.
//
// --trace 0 prints the end-to-end metrics; --trace 1 makes a separate,
// profiled run that prints the per-layer metrics. --record-digests,
// run from this directory, regenerates digests.json from the harness
// itself.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"
)

//go:embed digests.json
var digestsJSON []byte

// digests are the report digests the timing workloads check against,
// recorded by --record-digests from the harness's own runs.
var digests = func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		panic(fmt.Sprintf("digests.json: %v", err))
	}
	return m
}()

// runConfig is one run's settings.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	workDir string
	stderr  io.Writer
}

// outcome is one run's op accounting and measured metric values.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	stderr            io.Writer
}

func newOutcome(rc *runConfig) *outcome {
	return &outcome{values: map[string]float64{}, stderr: rc.stderr}
}

// fail counts one failed op or check and reports why on stderr.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(o.stderr, "perfbench: FAIL: "+format+"\n", args...)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: ycsb-timing, tpch-timing or serve-warm")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "1 makes the traced run that reports per-layer metrics")
	record := fs.String("record-digests", "", "comma-separated YCSB seeds: write digests.json for them and the TPC-H grid, then exit")
	child := fs.String("child", "", `child process started by the benchmark itself: "setup" plans and generates a simulation workload's grids, "warm" fills --cache-dir for serve-warm`)
	cacheDir := fs.String("cache-dir", "", "result cache a warm child fills")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record != "" {
		return recordDigestsCmd(*record, stderr)
	}
	newSim, isSim := simWorkloads[*workload]
	if !(isSim || *workload == "serve-warm") || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (ycsb-timing, tpch-timing, serve-warm), --seconds >= 1 and --trace 0 or 1\n")
		return 2
	}
	if *child != "" {
		var err error
		switch {
		case *child == "setup" && isSim:
			err = setUpSim(newSim(*seed))
		case *child == "warm" && !isSim && *cacheDir != "":
			err = warmCache(*cacheDir, *seed)
		default:
			err = fmt.Errorf("no child %q for %s", *child, *workload)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s %s: %v\n", *workload, *child, err)
			return 1
		}
		return 0
	}
	rc := &runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, stderr: stderr}
	rc.workDir = workFile(strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(rc.workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(rc.workDir)

	var o *outcome
	var err error
	if isSim {
		o, err = runSim(*workload, newSim(rc.seed), rc)
	} else {
		o, err = runServeWarm(rc)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	defs := endToEnd
	if rc.traced {
		defs = perLayer
	}
	res, err := newResult(defs, o.values, o.attempted, o.failed)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if err := res.write(stdout, defs); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func recordDigestsCmd(list string, stderr io.Writer) int {
	var seeds []uint64
	for _, f := range strings.Split(list, ",") {
		s, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: --record-digests: %v\n", err)
			return 2
		}
		seeds = append(seeds, s)
	}
	m, err := recordDigests(seeds, func(format string, args ...any) {
		fmt.Fprintf(stderr, "perfbench: "+format+"\n", args...)
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err == nil {
		err = os.WriteFile("digests.json", append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// profiler collects CPU-profile samples per layer over one or more
// profiled spans of a run.
type profiler struct {
	buf    bytes.Buffer
	counts map[string]int64
	err    error
}

func startProfile() (*profiler, error) {
	p := &profiler{counts: map[string]int64{}}
	p.resume()
	return p, p.err
}

// resume starts profiling a span.
func (p *profiler) resume() {
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil && p.err == nil {
		p.err = fmt.Errorf("cpu profile: %w", err)
	}
}

// pause ends a span and adds its samples per layer.
func (p *profiler) pause() {
	pprof.StopCPUProfile()
	samples, err := parseProfile(p.buf.Bytes())
	if err != nil {
		p.err = errors.Join(p.err, err)
		return
	}
	for l, n := range layerSamples(samples, profileLayers) {
		p.counts[l] += n
	}
}

// shares sets each layer's share of the samples and their count in v.
func (p *profiler) shares(v map[string]float64) error {
	sh, total := shares(p.counts, profileLayers)
	for k, x := range sh {
		v[k] = x
	}
	v["bench.profile_samples"] = float64(total)
	return p.err
}

// rssMeter tracks the process's peak resident set over a span by
// reading it every few milliseconds.
type rssMeter struct {
	mu   sync.Mutex
	peak int64 // pages
	stop chan struct{}
	done chan struct{}
}

func startRSSMeter() *rssMeter {
	m := &rssMeter{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			m.sample()
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// sample reads the resident set from /proc/self/statm.
func (m *rssMeter) sample() {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return
	}
	m.mu.Lock()
	m.peak = max(m.peak, pages)
	m.mu.Unlock()
}

// span returns the peak in MB since the last call and starts a new span.
func (m *rssMeter) span() float64 {
	m.sample()
	m.mu.Lock()
	defer m.mu.Unlock()
	mb := float64(m.peak*int64(os.Getpagesize())) / 1e6
	m.peak = 0
	return mb
}

func (m *rssMeter) close() {
	close(m.stop)
	<-m.done
}
