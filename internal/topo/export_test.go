package topo

// KeepEveryTxDone makes every port of t keep each txDone a real event and
// draw its faults there, as a port with scripted flaps does: the reference
// fabric FuzzReservedHops compares against.
func (t *Fabric) KeepEveryTxDone() {
	for i := range t.hosts {
		t.hosts[i].eager = true
	}
	for _, sw := range t.switches {
		for i := range sw.outs {
			sw.outs[i].eager = true
		}
	}
}
