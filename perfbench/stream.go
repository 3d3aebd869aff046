package main

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/serve"
)

// m88kTag moves m88ksim's PCs out of gcc's address range: both programs
// are linked at the same base, and one server serving two programs must
// keep their instructions apart.
const m88kTag = 1 << 40

// novelTag marks the PC range of serve-growth's never-repeating events,
// disjoint from both programs.
const novelTag = 1 << 41

// splitmix is the generator's seeded random source.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// between returns a value in [lo, hi].
func (s *splitmix) between(lo, hi int) int { return lo + int(s.next()%uint64(hi-lo+1)) }

// capture records the first n value events of a benchmark program, with
// tag ORed into every PC.
func capture(name string, n uint64, tag uint64) ([]serve.Event, error) {
	evs := make([]serve.Event, 0, n)
	_, err := engine.RunStream(engine.StreamConfig{Benchmark: name, Opt: bench.RefOpt, Events: n},
		func(pcs, vals []uint64) {
			for i := range pcs {
				evs = append(evs, serve.Event{PC: pcs[i] | tag, Value: vals[i]})
			}
		})
	if err != nil {
		return nil, fmt.Errorf("capture %s: %w", name, err)
	}
	return evs, nil
}

// programCycle is the simulator's gcc and m88ksim value streams, n events
// each, interleaved in seeded chunks of 1k-8k events: two programs
// sharing one server. Each program's own event order is kept, so a
// PC-local predictor sees exactly the program's value sequence.
func programCycle(seed uint64, n uint64) ([]serve.Event, error) {
	gcc, err := capture("gcc", n, 0)
	if err != nil {
		return nil, err
	}
	m88k, err := capture("m88ksim", n, m88kTag)
	if err != nil {
		return nil, err
	}
	rng := splitmix(seed)
	out := make([]serve.Event, 0, len(gcc)+len(m88k))
	for len(gcc)+len(m88k) > 0 {
		for _, src := range []*[]serve.Event{&gcc, &m88k} {
			k := min(rng.between(1024, 8192), len(*src))
			out = append(out, (*src)[:k]...)
			*src = (*src)[k:]
		}
	}
	return out, nil
}

// source yields a deterministic event stream. Two sources built with the
// same arguments yield the same events, which is how the correctness
// gate replays what the server was sent without keeping it.
type source interface {
	fill(dst []serve.Event)
}

// cyclic replays a program cycle round and round from a start offset.
type cyclic struct {
	cycle []serve.Event
	pos   int
}

func newCyclic(cycle []serve.Event, offset int) *cyclic {
	return &cyclic{cycle: cycle, pos: offset % len(cycle)}
}

func (c *cyclic) fill(dst []serve.Event) {
	for i := range dst {
		dst[i] = c.cycle[c.pos]
		if c.pos++; c.pos == len(c.cycle) {
			c.pos = 0
		}
	}
}

// growth interleaves the program cycle, from its start, with
// never-repeating values: a run of 256-2048 novel events, then a run of
// the same length from the program, and so on, so half the stream is
// novel. Novel values come from a seeded 64-bit counter through a
// bijective mix (so none ever repeats) on novelPCs PCs disjoint from the
// programs'; every novel event adds new FCM contexts, so the tables only
// grow. The seed picks the run lengths, the novel PCs and values; the
// program part and the novel share are the same for every seed, which
// keeps the cold server's accuracy comparable across seeds.
type growth struct {
	prog    *cyclic
	rng     splitmix
	ctr     uint64
	novel   bool
	runLen  int
	left    int
	novelPC int
}

const novelPCs = 1 << 13

func newGrowth(cycle []serve.Event, seed uint64) *growth {
	g := &growth{rng: splitmix(seed ^ 0x6772_6f77), prog: newCyclic(cycle, 0)}
	g.ctr = g.rng.next()
	return g
}

func (g *growth) fill(dst []serve.Event) {
	for i := range dst {
		if g.left == 0 {
			g.novel = !g.novel
			if g.novel {
				g.runLen = g.rng.between(256, 2048)
			}
			g.left = g.runLen
		}
		g.left--
		if !g.novel {
			g.prog.fill(dst[i : i+1])
			continue
		}
		g.ctr++
		c := splitmix(g.ctr)
		g.novelPC = (g.novelPC + 1 + int(g.rng.next()%7)) % novelPCs
		dst[i] = serve.Event{PC: novelTag | uint64(g.novelPC)<<2, Value: c.next()}
	}
}
