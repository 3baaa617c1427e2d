package main

import (
	"fmt"
	"math"

	"ppaclust/internal/designs"
	"ppaclust/internal/flow"
	"ppaclust/internal/netlist"
	"ppaclust/internal/place"
)

// fingerprint is a flow result's quality, bit for bit. Two runs of the same
// workload and seed must produce the same fingerprint, traced or not.
type fingerprint struct {
	HPWL, RoutedWL, WNS, TNS, Power uint64 // math.Float64bits
	Overflow                        int
	IllegalCells                    int
}

func fingerprintOf(res *flow.Result) fingerprint {
	return fingerprint{
		HPWL:         math.Float64bits(res.HPWL),
		RoutedWL:     math.Float64bits(res.RoutedWL),
		WNS:          math.Float64bits(res.WNS),
		TNS:          math.Float64bits(res.TNS),
		Power:        math.Float64bits(res.Power),
		Overflow:     res.Overflow,
		IllegalCells: illegalCells(res.Placed),
	}
}

// illegalCells sums every kind of placement violation CheckLegal reports.
// It is reported, not gated: the legalizer is known to leave a few.
func illegalCells(d *netlist.Design) int {
	r := place.CheckLegal(d)
	return r.OffRow + r.OffSite + r.Overlaps + r.Outside
}

// hpwlTol is the relative disagreement allowed between Result.HPWL and the
// benchmark's own recomputation. Both sum the same per-net values in net
// order, so they agree to rounding.
const hpwlTol = 1e-9

// checkResult verifies one flow result against its input: every instance is
// kept, every coordinate is finite, and the reported HPWL matches a
// recomputation from the placed coordinates.
func checkResult(b *designs.Benchmark, res *flow.Result) error {
	d := res.Placed
	if d == nil {
		return fmt.Errorf("no placed design")
	}
	if len(d.Insts) != len(b.Design.Insts) {
		return fmt.Errorf("placed design has %d instances, input has %d", len(d.Insts), len(b.Design.Insts))
	}
	for i, inst := range d.Insts {
		if inst.Name != b.Design.Insts[i].Name {
			return fmt.Errorf("instance %d is %q, input has %q", i, inst.Name, b.Design.Insts[i].Name)
		}
		if !finite(inst.X) || !finite(inst.Y) {
			return fmt.Errorf("instance %s at non-finite (%v, %v)", inst.Name, inst.X, inst.Y)
		}
	}
	for _, v := range []float64{res.HPWL, res.RoutedWL, res.WNS, res.TNS, res.Power} {
		if !finite(v) {
			return fmt.Errorf("non-finite quality metric %v", v)
		}
	}
	want := boxHPWL(d)
	if math.Abs(want-res.HPWL) > hpwlTol*math.Abs(want) {
		return fmt.Errorf("HPWL %v disagrees with per-net recomputation %v", res.HPWL, want)
	}
	return nil
}

// boxHPWL sums the half-perimeter of every net's pin bounding box.
func boxHPWL(d *netlist.Design) float64 {
	var sum float64
	for _, n := range d.Nets {
		if len(n.Pins) < 2 {
			continue
		}
		x0, y0 := math.Inf(1), math.Inf(1)
		x1, y1 := math.Inf(-1), math.Inf(-1)
		for _, p := range n.Pins {
			x, y := d.PinPos(p)
			x0, x1 = math.Min(x0, x), math.Max(x1, x)
			y0, y1 = math.Min(y0, y), math.Max(y1, y)
		}
		sum += (x1 - x0) + (y1 - y0)
	}
	return sum
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
