package pcie

import "breakband/internal/units"

// BusyUntil reports when each direction's serializer next falls idle,
// counting the reserved ACKs that are due.
func (l *Link) BusyUntil() (down, up units.Time) {
	l.down.settleAcks()
	l.up.settleAcks()
	return l.down.busyUntil, l.up.busyUntil
}
