package pcie

import "breakband/internal/units"

// BusyUntil reports when each direction's serializer next falls idle.
func (l *Link) BusyUntil() (down, up units.Time) { return l.down.busyUntil, l.up.busyUntil }
