package plan

// FanIn returns, for each station, the stations holding an out-edge into
// it, in ascending station order. Duplicate edges between the same pair
// (multi-port routing) still count as one producer: what matters is how
// many goroutines may hold a sender, not how many logical edges they
// multiplex over it.
func FanIn(p *Plan) [][]StationID {
	in := make([][]StationID, len(p.Stations))
	for i := range p.Stations {
		from := StationID(i)
		for _, e := range p.Stations[i].Out {
			dst := in[e.To]
			if n := len(dst); n > 0 && dst[n-1] == from {
				continue // second port on the same edge pair
			}
			in[e.To] = append(dst, from)
		}
	}
	return in
}

// Transport tags an inbox by its producer count.
//
// Deprecated: bench/ is the only caller. ROADMAP item 1(c) removes it.
type Transport int

const (
	// TransportMPSC tags an inbox with more than one producer.
	//
	// Deprecated: bench/ is the only caller. ROADMAP item 1(c) removes it.
	TransportMPSC Transport = iota
	// TransportSPSC tags an inbox with at most one producer.
	//
	// Deprecated: bench/ is the only caller. ROADMAP item 1(c) removes it.
	TransportSPSC
)

// Transports tags each station's inbox TransportSPSC where at most one
// station produces into it (sources trivially qualify) and TransportMPSC
// everywhere else. Every inbox runs the same mailbox; the tag only counts
// producers.
//
// Deprecated: bench/ is the only caller. ROADMAP item 1(c) removes it.
func Transports(p *Plan) []Transport {
	in := FanIn(p)
	ts := make([]Transport, len(in))
	for i, producers := range in {
		if len(producers) <= 1 {
			ts[i] = TransportSPSC
		}
	}
	return ts
}
