package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/experiments"
)

// The offline pipeline's fixed input: all seven benchmarks at a budget
// of 100k predicted events each, the output of
// `vpredict -exp all -events 100000`. offline-paper.sha256 pins the
// rendered text.
var (
	offlineBenches = []string{"compress", "gcc", "go", "ijpeg", "m88ksim", "perl", "xlisp"}
	offlineEvents  = uint64(100_000)
)

//go:embed offline-paper.sha256
var offlineDigest string

// round is one pass of the offline pipeline.
type round struct {
	artifacts float64            // suite + every render, s
	suite     float64            // engine.RunSuite, s
	events    uint64             // value events the suite predicted
	render    map[string]float64 // per experiment, s
	digest    string
}

// offline is the offline part of every run: engine.RunSuite on a fixed
// subset, then every experiment rendered, in the benchmark's own process
// while no server runs. The digest lock pins the inputs, so the seed does
// not change them.
//
// A run does half its rounds before the serve part and half after it,
// and reports medians over all of them. The host's speed drifts over tens
// of seconds; rounds at both ends of the run sample two stretches of it,
// where back-to-back rounds would sample one.
type offline struct {
	rounds []*round
}

// offlineHalf is how many rounds of the pipeline each half runs.
func offlineHalf(e *env) int { return max(3, e.seconds/5) }

// run repeats the whole pipeline n times, checking each round's output.
func (o *offline) run(e *env, n int) error {
	for i := 0; i < n; i++ {
		r, err := pipeline(e.sp)
		if err != nil {
			return err
		}
		if r.digest != strings.TrimSpace(offlineDigest) {
			err = fmt.Errorf("mismatch: rendered artifacts digest %s, want %s", r.digest, strings.TrimSpace(offlineDigest))
		}
		if e.op(err) != nil {
			return err
		}
		o.rounds = append(o.rounds, r)
	}
	return nil
}

// report sets artifacts_s, or in a traced run the sim, engine and
// experiments layers.
func (o *offline) report(e *env) error {
	all := o.rounds
	pick := func(f func(*round) float64) float64 {
		xs := make([]float64, len(all))
		for i, r := range all {
			xs[i] = f(r)
		}
		return median(xs)
	}
	arts := make([]float64, len(all))
	for i, r := range all {
		arts[i] = r.artifacts
	}
	fmt.Fprintf(os.Stderr, "rounds:   artifacts s %.3f\n", arts)
	if !e.traced {
		e.set("artifacts_s", pick(func(r *round) float64 { return r.artifacts }), "s")
		return nil
	}

	// The suite compiles and simulates each benchmark once, like the
	// streams; what it spends beyond them is the engine's fan-out, bank
	// workers and merge.
	streamS, simS, simEvents, err := simLayer(e)
	if err != nil {
		return err
	}
	suite := pick(func(r *round) float64 { return r.suite })
	events := all[0].events
	if events != simEvents {
		return fmt.Errorf("suite predicted %d events, the streams delivered %d", events, simEvents)
	}
	e.set("sim.ns_per_event", simS*1e9/float64(events), "ns")
	e.set("engine.suite_s", suite, "s")
	e.set("engine.ns_per_event", (suite-streamS)*1e9/float64(events), "ns")
	e.set("experiments.render_s", pick(func(r *round) float64 {
		var s float64
		for _, v := range r.render {
			s += v
		}
		return s
	}), "s")
	for _, id := range []string{"fig11", "table6", "table7", "ceil"} {
		e.set("experiments."+id+"_s", pick(func(r *round) float64 { return r.render[id] }), "s")
	}
	return nil
}

// pipeline runs the suite and renders every experiment in registry order,
// exactly as experiments.RunAll does, timing each step.
func pipeline(sp *spans) (*round, error) {
	cfg := experiments.Config{Events: offlineEvents, Benchmarks: offlineBenches}
	r := &round{render: make(map[string]float64)}
	root := sp.begin("offline.artifacts", 0)
	t0 := time.Now()
	id := sp.begin("engine.suite", root)
	suite, err := engine.RunSuite(engine.Config{Analysis: analysis.Config{Events: cfg.Events, Benchmarks: cfg.Benchmarks}})
	r.suite = time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	for _, br := range suite.Results {
		r.events += br.Events
	}
	sp.end(id, r.events)

	var text bytes.Buffer
	for _, ex := range experiments.Registry() {
		id := sp.begin("experiments."+ex.ID, root)
		t := time.Now()
		fmt.Fprintf(&text, "=== %s: %s ===\n\n", ex.ID, ex.Title)
		var s *analysis.Suite
		if ex.NeedsSuite {
			s = suite
		}
		if err := ex.Run(&text, cfg, s); err != nil {
			return nil, fmt.Errorf("%s: %w", ex.ID, err)
		}
		r.render[ex.ID] = time.Since(t).Seconds()
		sp.end(id, 0)
	}
	r.artifacts = time.Since(t0).Seconds()
	sp.end(root, r.events)
	sum := sha256.Sum256(text.Bytes())
	r.digest = hex.EncodeToString(sum[:])
	return r, nil
}

// simLayer times the simulator alone: engine.RunStream over the suite's
// benchmarks and budget with a consumer that does nothing. RunStream
// compiles each program first; it returns the stream time with and
// without that compile, and the events.
func simLayer(e *env) (streamS, simS float64, events uint64, err error) {
	var stream, compile time.Duration
	for _, b := range offlineBenches {
		id := e.sp.begin("bench.compile", 0)
		t0 := time.Now()
		if _, err := bench.ByName(b).Compile(bench.RefOpt); err != nil {
			return 0, 0, 0, err
		}
		compile += time.Since(t0)
		e.sp.end(id, 0)
		id = e.sp.begin("sim.stream", 0)
		t0 = time.Now()
		k, err := engine.RunStream(engine.StreamConfig{Benchmark: b, Opt: bench.RefOpt, Events: offlineEvents},
			func(pcs, vals []uint64) {})
		if err != nil {
			return 0, 0, 0, err
		}
		stream += time.Since(t0)
		e.sp.end(id, k)
		events += k
	}
	return stream.Seconds(), (stream - compile).Seconds(), events, nil
}

// writeDigest prints the digest of one pipeline round (used to refresh
// offline-paper.sha256 when the artifacts change on purpose).
func writeDigest(w io.Writer) error {
	r, err := pipeline(nil)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, r.digest)
	return err
}
