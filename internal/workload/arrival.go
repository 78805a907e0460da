package workload

import (
	"math"

	"breakband/internal/rng"
	"breakband/internal/units"
)

// arrivalClock is a cohort's compiled interarrival generator. It converts
// unit-mean renewal draws into wall-clock arrival times, applying the
// cohort's rate envelope by operational time change: a draw worth W units of
// work elapses when the integral of rate*factor over wall time reaches W.
// For Poisson arrivals the time change is exact (a thinned/stretched Poisson
// process is again Poisson with the modulated rate); for Gamma and Weibull
// renewals it is the standard rate-modulation approximation. A periodic
// clock's unit of work is exactly 1, so its arrivals come 1/rate apart and
// a factor-F window divides the spacing inside it by exactly F.
type arrivalClock struct {
	proc    string
	shape   float64
	invMean float64 // 1 / mean of the unit draw (rescales to mean 1)
	ratePs  float64 // base arrivals per picosecond
	env     []EnvelopeWindow
	start   units.Time // cohort-absolute window
	end     units.Time
}

func newArrivalClock(c *Cohort) arrivalClock {
	a := arrivalClock{
		proc:   c.Arrival.Process,
		shape:  c.Arrival.Shape,
		ratePs: c.Arrival.Rate / float64(units.Second),
		env:    sortedEnvelope(c.Envelope),
		start:  c.Start,
		end:    c.End(),
	}
	switch a.proc {
	case ProcPoisson:
		a.invMean = 1
	case ProcGamma:
		a.invMean = 1 / a.shape
	case ProcWeibull:
		a.invMean = 1 / rng.WeibullMean(a.shape)
	}
	return a
}

// sortedEnvelope returns the windows ordered by From (validated
// non-overlapping, so From order is total). The spec's slice is not mutated.
func sortedEnvelope(ws []EnvelopeWindow) []EnvelopeWindow {
	if len(ws) == 0 {
		return nil
	}
	out := make([]EnvelopeWindow, len(ws))
	copy(out, ws)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].From < out[j-1].From; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// drawWork returns one unit-mean renewal draw from the client's stream.
// Exactly one logical draw per call, always in the same order, so a client's
// stream replays identically whatever the scheduler does around it. A
// periodic clock draws nothing: its unit of work is exactly 1.
func (a *arrivalClock) drawWork(r *rng.Rand) float64 {
	switch a.proc {
	case ProcGamma:
		return r.Gamma(a.shape) * a.invMean
	case ProcWeibull:
		return r.Weibull(a.shape) * a.invMean
	case ProcPeriodic:
		return 1
	default:
		return r.Exp()
	}
}

// next converts the client's draw into the next arrival instant after prev
// (cohort-absolute). It walks the envelope integrating rate*factor; outside
// every window the factor is 1. Returns a time past the cohort end when the
// client's window is exhausted (the caller retires it).
func (a *arrivalClock) next(prev units.Time, r *rng.Rand) units.Time {
	// R is the remaining work expressed as picoseconds at factor 1.
	R := a.drawWork(r) / a.ratePs
	rel := float64(prev - a.start) // envelope times are cohort-relative
	for i := range a.env {
		w := &a.env[i]
		wf, wt := float64(w.From), float64(w.To)
		if rel >= wt {
			continue
		}
		if rel < wf { // gap before the window runs at factor 1
			gap := wf - rel
			if R <= gap {
				rel += R
				R = 0
				break
			}
			R -= gap
			rel = wf
		}
		capacity := (wt - rel) * w.Factor
		if R <= capacity {
			rel += R / w.Factor
			R = 0
			break
		}
		R -= capacity
		rel = wt
	}
	rel += R // past the last window: factor 1 forever
	if rel >= float64(units.MaxTime-a.start) {
		return units.MaxTime // past the clock's end, so past the cohort's
	}
	return a.start + units.Time(math.Round(rel))
}

// sizeGen is a cohort's compiled message-size generator. Like the arrival
// clock it consumes a fixed number of draws per call (zero for fixed, one
// otherwise).
type sizeGen struct {
	dist     string
	bytes    int // fixed
	min, max int // uniform
	logn     rng.LogNormal
	choices  []SizeChoice
	cum      []float64 // cumulative weights, normalized to [0, 1]
}

func newSizeGen(s *SizeSpec) sizeGen {
	g := sizeGen{dist: s.Dist, bytes: s.Bytes, min: s.Min, max: s.Max,
		logn: rng.NewLogNormal(s.Mean, s.CV), choices: s.Choices}
	if s.Dist == SizeDistChoice {
		var total float64
		for _, c := range s.Choices {
			total += c.Weight
		}
		g.cum = make([]float64, len(s.Choices))
		acc := 0.0
		for i, c := range s.Choices {
			acc += c.Weight / total
			g.cum[i] = acc
		}
		g.cum[len(g.cum)-1] = 1 // close rounding gaps
	}
	return g
}

func (g *sizeGen) draw(r *rng.Rand) int {
	switch g.dist {
	case SizeDistUniform:
		span := g.max - g.min + 1
		return g.min + int(r.Float64()*float64(span))%span
	case SizeDistLogNormal:
		b := int(math.Round(g.logn.Draw(r)))
		if b < 1 {
			b = 1
		}
		if b > MaxMsgBytes {
			b = MaxMsgBytes
		}
		return b
	case SizeDistChoice:
		u := r.Float64()
		for i, c := range g.cum {
			if u < c {
				return g.choices[i].Bytes
			}
		}
		return g.choices[len(g.choices)-1].Bytes
	default: // fixed: no draw
		return g.bytes
	}
}

// clientState is one client's generator state, stored by value: a million
// clients are one flat slice, not a million heap objects.
type clientState struct {
	rand rng.Rand   // per-client stream (value copy; draws mutate in place)
	next units.Time // scheduled next arrival (cohort-absolute)
	id   int32      // cohort-local client index
	ep   int32      // injector-local endpoint ordinal (destination)
}

// clientHeap is a binary min-heap of injector-local client slots ordered by
// (next arrival, client id) — a total order that is a pure function of the
// draws, never of scheduling. Storage is preallocated at compile time; heap
// operations allocate nothing.
type clientHeap struct {
	clients []clientState
	slots   []int32 // heap of indices into clients
}

func (h *clientHeap) less(a, b int32) bool {
	ca, cb := &h.clients[a], &h.clients[b]
	if ca.next != cb.next {
		return ca.next < cb.next
	}
	return ca.id < cb.id
}

// init heapifies the current slots.
func (h *clientHeap) init() {
	for i := len(h.slots)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h *clientHeap) len() int { return len(h.slots) }

// min reports the index (into clients) of the earliest client.
func (h *clientHeap) min() int32 { return h.slots[0] }

// fix restores heap order after the minimum client's next time changed.
func (h *clientHeap) fix() { h.siftDown(0) }

// pop removes the minimum client.
func (h *clientHeap) pop() {
	n := len(h.slots) - 1
	h.slots[0] = h.slots[n]
	h.slots = h.slots[:n]
	if n > 0 {
		h.siftDown(0)
	}
}

func (h *clientHeap) siftDown(i int) {
	n := len(h.slots)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(h.slots[l], h.slots[small]) {
			small = l
		}
		if r < n && h.less(h.slots[r], h.slots[small]) {
			small = r
		}
		if small == i {
			return
		}
		h.slots[i], h.slots[small] = h.slots[small], h.slots[i]
		i = small
	}
}
