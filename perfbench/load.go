package main

import (
	"fmt"
	"sort"
	"time"

	otrace "repro/internal/obs/trace"
	"repro/internal/serve"
)

// driveBatch is the events per request frame of the saturating drive.
const driveBatch = serve.DefaultDriveBatch

// tally is what the server answered for a stretch of the load.
type tally struct {
	events  uint64
	correct []uint64
}

func (t *tally) add(events uint64, correct []uint64) {
	t.events += events
	if len(t.correct) < len(correct) {
		t.correct = append(t.correct, make([]uint64, len(correct)-len(t.correct))...)
	}
	for i, v := range correct {
		t.correct[i] += v
	}
}

// link is the generator's single connection to the server. The sender
// (the generator's one worker goroutine) and the receiver run
// concurrently so requests pipeline; every phase ends with all of its
// results received, so phases never overlap on the wire.
type link struct {
	c      *serve.Client
	minter *otrace.Minter // non-nil: send every request with a trace context
}

// drive sends n events from src as fast as the server takes them and
// returns the server's tallies and the wall time from first send to last
// result.
func (l *link) drive(src source, n int) (tally, time.Duration, error) {
	nreq := (n + driveBatch - 1) / driveBatch
	sendErr := make(chan error, 1)
	t0 := time.Now()
	go func() {
		buf := make([]serve.Event, driveBatch)
		left := n
		for i := 0; i < nreq; i++ {
			b := buf[:min(driveBatch, left)]
			left -= len(b)
			src.fill(b)
			if err := l.send(b); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- l.c.Flush()
	}()
	t, err := l.recv(nreq, nil)
	if err != nil {
		l.c.Close() // unblocks a sender stuck on a dead connection
	}
	if serr := <-sendErr; serr != nil && err == nil {
		err = serr
	}
	if err == nil && t.events != uint64(n) {
		err = fmt.Errorf("short tally: sent %d events, server answered %d", n, t.events)
	}
	return t, time.Since(t0), err
}

func (l *link) send(b []serve.Event) error {
	if l.minter != nil {
		return l.c.SendTraced(b, l.minter.Next())
	}
	return l.c.Send(b)
}

// recv reads nreq results. When done is non-nil, each result's arrival
// time is sent on it (for the open-loop phase's latency).
func (l *link) recv(nreq int, done chan<- time.Time) (tally, error) {
	var t tally
	var br serve.BatchResult
	for i := 0; i < nreq; i++ {
		if err := l.c.RecvInto(&br); err != nil {
			return t, fmt.Errorf("receive result %d of %d: %w", i+1, nreq, err)
		}
		if done != nil {
			done <- time.Now()
		}
		t.add(br.Events, br.Correct)
	}
	return t, nil
}

// openLoopResult is what one open-loop window measured.
type openLoopResult struct {
	t       tally
	latency []time.Duration // per request, from when it was due
	late    []time.Duration // per request, how late the generator sent it
}

// openLoop offers nreq requests of batch events each on a fixed schedule,
// one every period, whether or not earlier ones were answered. Each
// request's latency runs from when it was due, so a stall also counts
// against the requests queued behind it.
func (l *link) openLoop(src source, nreq, batch int, period time.Duration) (*openLoopResult, error) {
	due := make([]time.Time, nreq)
	out := &openLoopResult{late: make([]time.Duration, nreq)}
	sendErr := make(chan error, 1)
	// Sized to every request, so the receiver never blocks on it.
	arrivals := make(chan time.Time, nreq)
	start := time.Now().Add(5 * time.Millisecond)
	for i := range due {
		due[i] = start.Add(time.Duration(i) * period)
	}
	go func() {
		buf := make([]serve.Event, batch)
		for i := 0; i < nreq; i++ {
			src.fill(buf)
			if d := time.Until(due[i]); d > 0 {
				time.Sleep(d)
			}
			out.late[i] = time.Since(due[i])
			if err := l.send(buf); err != nil {
				sendErr <- err
				return
			}
			if err := l.c.Flush(); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	t, err := l.recv(nreq, arrivals)
	close(arrivals)
	if err != nil {
		l.c.Close()
	}
	if serr := <-sendErr; serr != nil && err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	if t.events != uint64(nreq*batch) {
		return nil, fmt.Errorf("short tally: sent %d events, server answered %d", nreq*batch, t.events)
	}
	out.t = t
	i := 0
	for at := range arrivals {
		out.latency = append(out.latency, at.Sub(due[i]))
		i++
	}
	return out, nil
}

// quantile returns the q-quantile of ds (nearest rank); ds is sorted in
// place.
func quantile(ds []time.Duration, q float64) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(q*float64(len(ds)-1) + 0.5)
	return ds[i]
}
