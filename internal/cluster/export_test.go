package cluster

// RaceEnabled tells the external test package whether the race detector
// is on.
const RaceEnabled = raceEnabled

// InFlight reads tr's in-flight count: messages not yet delivered or
// dropped, plus Holds not yet released.
func InFlight(tr Transport) int {
	var c *core
	switch t := tr.(type) {
	case *Mem:
		c = &t.core
	case *TCP:
		c = &t.core
	}
	c.inflightMu.Lock()
	defer c.inflightMu.Unlock()
	return c.inflight
}
