package hmux

import (
	"duet/internal/packet"
	"duet/internal/steer"
)

// EntryOf returns the entry the switch resolves a VIP through.
func EntryOf(m *Mux, addr packet.Addr) (*steer.Entry, bool) {
	return m.tab.Load().vips.Get(addr)
}
