package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	otrace "repro/internal/obs/trace"
	"repro/internal/predstat"
	"repro/internal/serve"
	"repro/internal/snapshot"
)

const (
	// cyclePerProgram is how many value events of gcc and of m88ksim the
	// program cycle holds.
	cyclePerProgram = 250_000
	// restoreSetups and coldSetups are how many times a run starts the
	// server to time set-up, restoring or cold; the last start serves the
	// load. A cold start takes milliseconds, so it is repeated more.
	restoreSetups = 5
	coldSetups    = 15
	// restoreStarts is how many restarts from the final chain time
	// restore_s.
	restoreStarts = 5
	// segments is how many times a serve run repeats drive, open-loop
	// window and checkpoint cut; each metric is the median or mean over
	// them.
	segments = 10
	// coreEvents bounds the in-process per-predictor replays of a traced
	// run.
	coreEvents = 2_000_000
	// genWorkers is the number of generator goroutines: the one sender of
	// the load connection.
	genWorkers = 1
)

// tracedSegment picks the segments a traced run sends traced. Segment 0
// warms up and is in neither half; the traced and untraced halves are
// placed so a cost that drifts linearly over the run (serve-growth's
// tables grow) falls on both about equally.
var tracedSegment = [segments]bool{1: true, 2: true, 5: true, 6: true, 9: true}

// profile sizes one serve workload. The drive's event count is fixed
// per --seconds (driveRate × seconds), not by the clock, so a faster
// server finishes sooner instead of building bigger tables.
type profile struct {
	driveRate float64 // events per measured second in the saturating drive
	olRate    float64 // offered events/s in the open-loop latency phase
	olBatch   int     // events per open-loop request
	olShare   float64 // open-loop windows' total length as a share of --seconds
	// growing: the tables grow through the run, so no two segments do
	// the same work, and throughput is all drive events over all drive
	// time rather than the median segment's rate.
	growing bool
}

var (
	steadyProfile = profile{driveRate: 1_000_000, olRate: 250_000, olBatch: 1024, olShare: 0.4}
	growthProfile = profile{driveRate: 20_000, olRate: 50_000, olBatch: 256, olShare: 0.4, growing: true}
)

// runSteady serves the program cycle, from a seeded offset, to a server
// restored from the delta chain of its own training pass.
func runSteady(e *env) error {
	cycle, err := programCycle(e.seed, cyclePerProgram)
	if err != nil {
		return err
	}
	dir := filepath.Join(e.workdir, "chain")
	if err := train(e, cycle, dir); err != nil {
		return err
	}
	tip, err := snapshot.LatestAny(dir)
	if err != nil {
		return err
	}
	// The state the server restores, for the correctness replay; read
	// now, because the timed cuts grow the chain past this tip.
	start, _, err := snapshot.ResolveChain(tip)
	if err != nil {
		return err
	}
	srv, l, err := e.setup(restoreSetups, append([]string{"-restore", dir}, timedFlags(dir)...))
	if err != nil {
		return err
	}
	rng := splitmix(e.seed ^ 0x5354_4541)
	offset := int(rng.next() % uint64(len(cycle)))
	ph, err := e.servePhases(srv, l, newCyclic(cycle, offset), steadyProfile)
	if err != nil {
		return err
	}
	if err := srv.stop(); err != nil {
		return err
	}
	if err := e.restores(dir); err != nil {
		return err
	}
	if err := e.snapshotLayer(dir); err != nil {
		return err
	}
	return e.checkAndCore(start, func() source { return newCyclic(cycle, offset) }, ph)
}

// runGrowth serves the program cycle interleaved with never-repeating
// values to a cold server, so its tables only grow.
func runGrowth(e *env) error {
	cycle, err := programCycle(e.seed, cyclePerProgram)
	if err != nil {
		return err
	}
	dir := filepath.Join(e.workdir, "chain")
	srv, l, err := e.setup(coldSetups, timedFlags(dir))
	if err != nil {
		return err
	}
	// Root the chain on the empty tables, so every timed cut is a delta.
	if err := e.op(srv.snapshot()); err != nil {
		return err
	}
	ph, err := e.servePhases(srv, l, newGrowth(cycle, e.seed), growthProfile)
	if err != nil {
		return err
	}
	if err := srv.stop(); err != nil {
		return err
	}
	if err := e.restores(dir); err != nil {
		return err
	}
	if err := e.snapshotLayer(dir); err != nil {
		return err
	}
	return e.checkAndCore(nil, func() source { return newGrowth(cycle, e.seed) }, ph)
}

// restores restarts the server from the final chain in dir, timing each
// start to its first accepted hello; restore_s is the median.
func (e *env) restores(dir string) error {
	var readies []float64
	for i := 0; i < restoreStarts; i++ {
		id := e.sp.begin("serve.restore", 0)
		s, c, ready, err := e.start("-restore", dir)
		e.sp.end(id, 0)
		if e.op(err) != nil {
			return err
		}
		c.Close()
		s.kill()
		readies = append(readies, ready.Seconds())
	}
	if !e.traced {
		e.set("restore_s", median(readies), "s")
	}
	return nil
}

// start runs a vpserve child (see startServer) and registers it, so
// stopAll can reap it whatever path the run leaves by.
func (e *env) start(args ...string) (*server, *serve.Client, time.Duration, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return nil, nil, 0, errors.New("stopped")
	}
	s, c, ready, err := startServer(e.vpserve, args...)
	if err == nil {
		e.servers = append(e.servers, s)
	}
	return s, c, ready, err
}

// stopAll kills every server still running, waits for each to exit and
// refuses later starts. It is safe to call from a signal handler's
// goroutine while a run is starting servers.
func (e *env) stopAll() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stopped = true
	for _, s := range e.servers {
		s.kill()
	}
}

// timedFlags configures the serving server's checkpoints: delta cuts into
// dir, with no forced full among the timed cuts.
func timedFlags(dir string) []string {
	return []string{"-checkpoint-dir", dir, "-checkpoint-delta", "-checkpoint-full-every", "64"}
}

// train runs a cold server over the whole cycle once, cutting a
// checkpoint after each quarter (a full root, then deltas), and stops it
// so it writes its final checkpoint: the pre-trained delta chain
// serve-steady restores.
func train(e *env, cycle []serve.Event, dir string) error {
	srv, c, _, err := e.start("-checkpoint-dir", dir, "-checkpoint-delta")
	if e.op(err) != nil {
		return err
	}
	defer c.Close()
	l := &link{c: c}
	src := newCyclic(cycle, 0)
	for part := 0; part < 4; part++ {
		n := len(cycle) / 4
		if part == 3 {
			n = len(cycle) - 3*n
		}
		if _, _, err := l.drive(src, n); e.op(err) != nil {
			return err
		}
		if err := e.op(srv.snapshot()); err != nil {
			return err
		}
	}
	c.Close()
	return e.op(srv.stop())
}

// setup starts the server n times with args, timing each start to its
// first accepted hello; the last one is kept to serve the load. setup_s
// is the median.
func (e *env) setup(n int, args []string) (*server, *link, error) {
	var readies []float64
	for i := 0; ; i++ {
		id := e.sp.begin("serve.start", 0)
		srv, c, ready, err := e.start(args...)
		e.sp.end(id, 0)
		if e.op(err) != nil {
			return nil, nil, err
		}
		readies = append(readies, ready.Seconds())
		if i == n-1 {
			if !e.traced {
				e.set("setup_s", median(readies), "s")
			}
			return srv, &link{c: c}, nil
		}
		c.Close()
		srv.kill()
	}
}

// phaseResult is what the served load returned, kept for the
// correctness gate.
type phaseResult struct {
	served tally // every event the server answered, drive and open loop
	events int   // events sent, in order, from the workload's source
}

// servePhases runs the timed part of a serve workload on the one load
// connection. Each of the segments is a saturating drive, then an
// open-loop latency window, then a checkpoint cut, so every measurement
// is repeated across the run and reported as a median. In a traced run
// half the segments send traced requests and /metrics is scraped around
// their drives and cuts, giving the serve and snapshot layers; the
// untraced segments between them give the tracing overhead.
func (e *env) servePhases(srv *server, l *link, src source, p profile) (*phaseResult, error) {
	defer l.c.Close()
	res := &phaseResult{}
	seg := int(p.driveRate*float64(e.seconds)) / segments
	olReqs := int(p.olShare*float64(e.seconds)*p.olRate/float64(p.olBatch)) / segments
	period := time.Duration(float64(time.Second) * float64(p.olBatch) / p.olRate)
	var rates, cpus, cuts, p50s, p90s []float64
	var cpuAll, driveAll time.Duration
	var late []time.Duration
	// Traced-run accumulators: server CPU, wall time and events of the
	// traced and the untraced drives, and metric deltas over the traced
	// drives and cuts.
	var cpuOn, wallOn, wallOff time.Duration
	var evOn, evOff uint64
	delta := map[string]float64{}
	root := e.sp.begin("serve.load", 0)
	for i := 0; i < segments; i++ {
		traced := e.traced && tracedSegment[i]
		l.minter = nil
		if traced {
			l.minter = otrace.NewMinter(e.seed<<8|uint64(i), 1<<30)
		}
		var t tally
		var d, cpu time.Duration
		err := scraped(srv, traced, delta, "", func() error {
			c0, err := srv.cpu()
			if err != nil {
				return err
			}
			id := e.sp.begin("serve.drive", root)
			t, d, err = l.drive(src, seg)
			e.sp.end(id, uint64(seg))
			if e.op(err) != nil {
				return err
			}
			c1, err := srv.cpu()
			cpu = c1 - c0
			return err
		})
		if err != nil {
			return nil, err
		}
		l.minter = nil
		res.served.add(t.events, t.correct)
		rates = append(rates, float64(t.events)/d.Seconds())
		cpus = append(cpus, float64(cpu.Nanoseconds())/float64(t.events))
		cpuAll += cpu
		driveAll += d
		if traced {
			cpuOn += cpu
			wallOn += d
			evOn += t.events
		} else if i > 0 {
			wallOff += d
			evOff += t.events
		}

		id := e.sp.begin("serve.open_loop", root)
		ol, err := l.openLoop(src, olReqs, p.olBatch, period)
		e.sp.end(id, uint64(olReqs*p.olBatch))
		if e.op(err) != nil {
			return nil, err
		}
		res.served.add(ol.t.events, ol.t.correct)
		p50s = append(p50s, quantile(ol.latency, 0.50).Seconds()*1e3)
		p90s = append(p90s, quantile(ol.latency, 0.90).Seconds()*1e3)
		late = append(late, ol.late...)
		res.events += seg + olReqs*p.olBatch

		err = scraped(srv, traced, delta, "cut:", func() error {
			id := e.sp.begin("serve.checkpoint", root)
			t0 := time.Now()
			err := srv.snapshot()
			cuts = append(cuts, time.Since(t0).Seconds())
			e.sp.end(id, 0)
			return e.op(err)
		})
		if err != nil {
			return nil, err
		}
	}
	e.sp.end(root, uint64(res.events))

	end, err := srv.metrics()
	if err != nil {
		return nil, err
	}
	if err := e.op(checkLoadShape(end)); err != nil {
		return nil, err
	}
	rss, err := peakRSS(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	fcm3 := slices.Index(l.c.Predictors(), "fcm3")
	if fcm3 < 0 {
		return nil, fmt.Errorf("server bank %v has no fcm3", l.c.Predictors())
	}
	fmt.Fprintf(os.Stderr, "segments: events/s %.0f\n          server ns/event %.0f\n          lat p90 ms %.3f\n          cut s %.4f\n",
		rates, cpus, p90s, cuts)

	if !e.traced {
		rate := median(rates)
		if p.growing {
			rate = float64(seg*segments) / driveAll.Seconds()
		}
		e.set("events_per_s", rate, "1/s")
		// CPU time counts in 10ms ticks, too coarse for one short
		// segment; over all of them it is exact to a fraction of a
		// percent.
		e.set("cpu_ns_per_event", float64(cpuAll.Nanoseconds())/float64(seg*segments), "ns")
		e.set("lat_p50_ms", median(p50s), "ms")
		e.set("lat_p90_ms", median(p90s), "ms")
		// The mean, not the median: on serve-growth the cuts grow with
		// the tables, and the median would rest on the middle two alone.
		e.set("ckpt_s", mean(cuts), "s")
		e.set("rss_peak_mb", rss, "MiB")
		e.set("hit_pct", 100*float64(res.served.correct[fcm3])/float64(res.served.events), "%")
		return res, nil
	}

	ev := delta["vp_events_total"]
	cpuPerEv := float64(cpuOn.Nanoseconds()) / float64(evOn)
	bank := delta["vp_batch_ns_sum"] / ev
	dispatch := delta[`vp_trace_stage_ns_total{stage="enqueue"}`] / ev
	e.set("serve.request_ns_per_event", delta["vp_request_ns_sum"]/ev, "ns")
	e.set("serve.bank_ns_per_event", bank, "ns")
	e.set("serve.dispatch_ns_per_event", dispatch, "ns")
	e.set("serve.unaccounted_ns_per_event", cpuPerEv-bank-dispatch, "ns")
	e.set("serve.pc_runs_per_event", delta["vp_batch_pc_runs_sum"]/ev, "count")
	e.set("serve.mailbox_highwater", end[`vp_shard_mailbox_highwater{shard="0"}`], "count")
	e.set("serve.heap_mb", end["vp_go_heap_bytes"]/(1<<20), "MiB")
	cutN := delta[`cut:vp_checkpoint_total{kind="delta"}`]
	if cutN < 1 {
		return nil, fmt.Errorf("traced cuts wrote %v delta checkpoints", cutN)
	}
	e.set("snapshot.cut_ms", delta["cut:vp_checkpoint_cut_ns_sum"]/cutN/1e6, "ms")
	e.set("snapshot.encode_ms", delta["cut:vp_checkpoint_encode_ns_sum"]/cutN/1e6, "ms")
	e.set("snapshot.bytes_per_cut", delta[`cut:vp_checkpoint_bytes_total{kind="delta"}`]/cutN, "B")
	written, deduped := delta["cut:vp_checkpoint_chunks_written_total"], delta["cut:vp_checkpoint_chunks_deduped_total"]
	e.set("snapshot.dedupe_ratio", deduped/max(written+deduped, 1), "ratio")
	e.set("bench.gen_late_p50_ms", quantile(late, 0.50).Seconds()*1e3, "ms")
	// Overhead as lost throughput: wall time has finer grain than the
	// 10ms CPU ticks over these short drives.
	on, off := float64(evOn)/wallOn.Seconds(), float64(evOff)/wallOff.Seconds()
	e.set("bench.trace_overhead_pct", 100*(off/on-1), "%")
	e.set("bench.ledger_coverage_pct", 100*(bank+dispatch)/cpuPerEv, "%")
	return res, nil
}

// scraped runs fn; when on, it adds the change of every /metrics series
// across fn into delta, under prefix.
func scraped(srv *server, on bool, delta map[string]float64, prefix string, fn func() error) error {
	if !on {
		return fn()
	}
	before, err := srv.metrics()
	if err != nil {
		return err
	}
	if err := fn(); err != nil {
		return err
	}
	after, err := srv.metrics()
	if err != nil {
		return err
	}
	for k, v := range after {
		delta[prefix+k] += v - before[k]
	}
	return nil
}

// checkLoadShape asserts the load ran as designed: exactly one client
// connection to a one-shard server, driven by no more generator
// goroutines than there are CPUs.
func checkLoadShape(m map[string]float64) error {
	if n := m["vp_conn_accepted_total"]; n != 1 {
		return fmt.Errorf("load used %v connections, want 1", n)
	}
	if _, ok := m[`vp_shard_events_total{shard="1"}`]; ok {
		return fmt.Errorf("server runs more than one shard")
	}
	if genWorkers > runtime.NumCPU() {
		return fmt.Errorf("%d generator goroutines on %d CPUs", genWorkers, runtime.NumCPU())
	}
	return nil
}

// snapshotLayer times an in-process ResolveChain of the newest chain in
// dir (traced runs only).
func (e *env) snapshotLayer(dir string) error {
	if !e.traced {
		return nil
	}
	tip, err := snapshot.LatestAny(dir)
	if err != nil {
		return err
	}
	id := e.sp.begin("snapshot.resolve", 0)
	t0 := time.Now()
	snap, _, err := snapshot.ResolveChain(tip)
	d := time.Since(t0)
	e.sp.end(id, 0)
	if err != nil {
		return err
	}
	e.set("snapshot.resolve_s", d.Seconds(), "s")
	e.set("snapshot.state_mb", float64(snap.StateBytes())/(1<<20), "MiB")
	return nil
}

// newBank builds a bank of the standard predictors picked by idx (all
// when idx is empty), loaded from shard 0 of snap, or cold when snap is
// nil.
func newBank(snap *snapshot.Snapshot, idx ...int) (*core.Bank, error) {
	facs := core.StandardFactories()
	if len(idx) == 0 {
		for i := range facs {
			idx = append(idx, i)
		}
	}
	var preds []core.Predictor
	for _, i := range idx {
		p := facs[i].New()
		if snap != nil {
			if snap.Meta.Predictors[i] != facs[i].Name {
				return nil, fmt.Errorf("snapshot predictor %d is %q, want %q", i, snap.Meta.Predictors[i], facs[i].Name)
			}
			if err := p.(core.Stateful).LoadState(bytes.NewReader(snap.Shards[0].Preds[i].State)); err != nil {
				return nil, err
			}
		}
		preds = append(preds, p)
	}
	return core.NewBank(preds...), nil
}

// replay steps n events of src through bank in the server's request
// batch size and returns the time spent in StepBatch.
func replay(bank *core.Bank, src source, n int) time.Duration {
	evs := make([]serve.Event, driveBatch)
	pcs := make([]uint64, driveBatch)
	vals := make([]uint64, driveBatch)
	var d time.Duration
	for left := n; left > 0; {
		k := min(left, driveBatch)
		src.fill(evs[:k])
		for i, ev := range evs[:k] {
			pcs[i], vals[i] = ev.PC, ev.Value
		}
		t0 := time.Now()
		bank.StepBatch(pcs[:k], vals[:k])
		d += time.Since(t0)
		left -= k
	}
	return d
}

// checkAndCore is the correctness gate — an in-process core.Bank,
// started from the state the server started from, replays every event
// the server was sent, and its per-predictor tallies must equal the
// server's exactly — and, in a traced run, the core and predstat layers
// timed on a prefix of the same stream.
func (e *env) checkAndCore(start *snapshot.Snapshot, stream func() source, ph *phaseResult) error {
	if e.traced {
		n := min(coreEvents, ph.events)
		for i, fac := range core.StandardFactories() {
			b, err := newBank(start, i)
			if err != nil {
				return err
			}
			id := e.sp.begin("core."+fac.Name, 0)
			d := replay(b, stream(), n)
			e.sp.end(id, uint64(n))
			e.set("core."+fac.Name+".ns_per_event", float64(d.Nanoseconds())/float64(n), "ns")
		}
		b, err := newBank(start)
		if err != nil {
			return err
		}
		id := e.sp.begin("core.bank", 0)
		bankD := replay(b, stream(), n)
		e.sp.end(id, uint64(n))
		if b, err = newBank(start); err != nil {
			return err
		}
		names := make([]string, 0, 5)
		for _, f := range core.StandardFactories() {
			names = append(names, f.Name)
		}
		b.SetObserver(predstat.NewTracker(predstat.Config{PredNames: names}))
		id = e.sp.begin("core.bank+predstat", 0)
		obsD := replay(b, stream(), n)
		e.sp.end(id, uint64(n))
		e.set("core.bank.ns_per_event", float64(bankD.Nanoseconds())/float64(n), "ns")
		e.set("predstat.ns_per_event", float64((obsD-bankD).Nanoseconds())/float64(n), "ns")
	}
	b, err := newBank(start)
	if err != nil {
		return err
	}
	id := e.sp.begin("check.replay", 0)
	replay(b, stream(), ph.events)
	e.sp.end(id, uint64(ph.events))
	return e.op(sameTally(ph.served, b))
}

func sameTally(served tally, b *core.Bank) error {
	if served.events != b.Events() {
		return fmt.Errorf("mismatch: server answered %d events, replay stepped %d", served.events, b.Events())
	}
	want := b.Correct()
	for i := range want {
		if served.correct[i] != want[i] {
			return fmt.Errorf("mismatch: predictor %d: server %d correct, replay %d", i, served.correct[i], want[i])
		}
	}
	return nil
}
