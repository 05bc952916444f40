package main

import (
	"bufio"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed layer call. Spans are kept in memory while the run
// measures and written out when it ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for an op's root span
	Op     int    `json:"op"`
	Name   string `json:"name"`  // the public function called
	Layer  string `json:"layer"` // the per-layer metric its self time feeds
	// Start and End are microseconds since the run began.
	Start float64 `json:"start_us"`
	End   float64 `json:"end_us"`
	// Derived marks a span placed from a phase time the called function
	// returned (its children cannot be wrapped from outside); derived
	// spans are laid back to back from their parent's start.
	Derived bool `json:"derived,omitempty"`
}

// child is a derived sub-span of an op: the layer's time as the program
// itself reported it.
type child struct {
	name, layer string
	seconds     float64
}

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) us(tm time.Time) float64 { return float64(tm.Sub(t.t0).Nanoseconds()) / 1e3 }

// op records an op's root span [start, end] and its derived children; it
// is safe for concurrent use. A child is cut at the root's end, so the
// children never account for more than the op's time.
func (t *tracer) op(op int, name, layer string, start, end time.Time, children []child) {
	t.mu.Lock()
	defer t.mu.Unlock()
	root := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: root, Op: op, Name: name, Layer: layer, Start: t.us(start), End: t.us(end)})
	at := t.us(start)
	for _, c := range children {
		d := max(min(c.seconds*1e6, t.us(end)-at), 0)
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: root, Op: op, Name: c.name,
			Layer: c.layer, Start: at, End: at + d, Derived: true})
		at += d
	}
}

// selfTimes returns, per op, each layer's self time in seconds: a span's
// duration minus the part of it its children cover.
func selfTimes(spans []span) map[int]map[string]float64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[int]map[string]float64{}
	for _, s := range spans {
		self := (s.End - s.Start) - covered(s, kids[s.ID])
		if out[s.Op] == nil {
			out[s.Op] = map[string]float64{}
		}
		out[s.Op][s.Layer] += max(self, 0) / 1e6
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) float64 {
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]float64) int {
		switch {
		case a[0] < b[0]:
			return -1
		case a[0] > b[0]:
			return 1
		}
		return 0
	})
	var total, end float64
	first := true
	for _, v := range iv {
		if first || v[0] > end {
			total += v[1] - v[0]
			end, first = v[1], false
			continue
		}
		if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// dominant returns the layer with the largest total, and its share of
// the op time the totals were taken from.
func dominant(layers map[string]float64, opSeconds float64) (string, float64) {
	var name string
	var best float64
	for l, v := range layers {
		if v > best || (v == best && l < name) {
			name, best = l, v
		}
	}
	if opSeconds <= 0 {
		return name, 0
	}
	return name, best / opSeconds
}
