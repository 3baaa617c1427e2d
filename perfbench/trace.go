package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer. Times are seconds since the
// recorder started; Parent is the index of the enclosing span, -1 for a
// root.
type span struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans and counters in memory for one traced run; they are
// written out when the run ends. Calls nest strictly, so an open-span stack
// gives every span its parent.
type tracer struct {
	t0       time.Time
	spans    []span
	open     []int
	counters map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counters: map[string]float64{}}
}

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: t.now()})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	t.spans[id].End = t.now()
	t.open = t.open[:len(t.open)-1]
}

// do runs f inside a span named name. On a nil tracer it just runs f.
func (t *tracer) do(name string, f func()) {
	if t == nil {
		f()
		return
	}
	id := t.begin(name)
	f()
	t.end(id)
}

func (t *tracer) add(counter string, v float64) { t.counters[counter] += v }

func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() }

func (s span) dur() float64 { return s.End - s.Start }

// layerRow is one line of the per-layer table: every span of one name.
type layerRow struct {
	Name  string  `json:"name"`
	Calls int     `json:"calls"`
	Self  float64 `json:"self_s"` // summed self time
}

// layers groups the spans below root (root included) by name. A span's self
// time is its duration minus the part of it its direct children cover, so
// the rows' self times add up to root's duration. Rows come slowest first.
func (t *tracer) layers(root int) []layerRow {
	self := make([]float64, len(t.spans))
	under := make([]bool, len(t.spans))
	for i, s := range t.spans {
		// Parents precede children, so one forward pass marks the subtree.
		under[i] = i == root || (s.Parent >= 0 && under[s.Parent])
		if under[i] {
			self[i] += s.dur()
			if i != root {
				self[s.Parent] -= s.dur()
			}
		}
	}
	byName := map[string]*layerRow{}
	var rows []layerRow
	var order []string
	for i, s := range t.spans {
		if !under[i] {
			continue
		}
		r, ok := byName[s.Name]
		if !ok {
			r = &layerRow{Name: s.Name}
			byName[s.Name] = r
			order = append(order, s.Name)
		}
		r.Calls++
		r.Self += self[i]
	}
	for _, name := range order {
		rows = append(rows, *byName[name])
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Self > rows[j].Self })
	return rows
}
