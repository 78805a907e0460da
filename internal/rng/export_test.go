package rng

// CV exposes a LogNormalDist's coefficient of variation to the external
// tests.
func (d LogNormalDist) CV() float64 { return d.p.cv }
