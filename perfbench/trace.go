package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// span is one timed interval of the traced run, recorded by the benchmark
// around its own calls into the program. Times are run seconds (now()).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0: a root span
	Name   string  `json:"name"`
	Inst   string  `json:"inst"` // instance or request id
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps the spans of a run in memory until the run ends. It is safe
// for concurrent use.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a finished span and returns its id for children to name as
// parent. A nil tracer records nothing and returns 0.
func (tr *tracer) add(name, inst string, parent int, start, end float64) int {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Name: name, Inst: inst, Start: start, End: end})
	return id
}

// begin opens a span starting now; end closes it. A nil tracer records
// nothing.
func (tr *tracer) begin(name, inst string, parent int) int {
	return tr.add(name, inst, parent, now(), 0)
}

func (tr *tracer) end(id int) {
	if tr == nil || id == 0 {
		return
	}
	t := now()
	tr.mu.Lock()
	tr.spans[id-1].End = t
	tr.mu.Unlock()
}

func (tr *tracer) len() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.spans)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover.
func (tr *tracer) selfTimes() map[int]float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range tr.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]float64, len(tr.spans))
	for _, s := range tr.spans {
		self[s.ID] = (s.End - s.Start) - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]float64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, hi float64
	lo := -1.0
	for _, x := range iv {
		if lo < 0 || x[0] > hi {
			if lo >= 0 {
				total += hi - lo
			}
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	if lo >= 0 {
		total += hi - lo
	}
	return total
}

// sumSelf is the total self time of the spans named name.
func (tr *tracer) sumSelf(name string) float64 {
	self := tr.selfTimes()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var s float64
	for _, sp := range tr.spans {
		if sp.Name == name {
			s += self[sp.ID]
		}
	}
	return s
}

// coverage is the share of the traced operations' time that their layer
// spans cover: over the root spans that have children, so the childless
// probe spans do not count.
func (tr *tracer) coverage() float64 {
	self := tr.selfTimes()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	parents := map[int]bool{}
	for _, s := range tr.spans {
		parents[s.Parent] = true
	}
	var total, uncovered float64
	for _, s := range tr.spans {
		if s.Parent == 0 && parents[s.ID] {
			total += s.End - s.Start
			uncovered += self[s.ID]
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - uncovered/total
}

// writeFile writes the spans, with their self times, as one JSON document.
func (tr *tracer) writeFile(path string) error {
	self := tr.selfTimes()
	tr.mu.Lock()
	type out struct {
		span
		Self float64 `json:"self_s"`
	}
	all := make([]out, len(tr.spans))
	for i, s := range tr.spans {
		all[i] = out{s, self[s.ID]}
	}
	tr.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
