package pytheas

// goodThreshold separates "performing well" from "performing poorly" as
// the bot measures it itself — no oracle needed.
const goodThreshold float64 = 3

// Poison is the §4.1 host-level attack: a botnet controls a fraction of
// the group's sessions and submits fabricated QoE reports — low whenever
// the bot was assigned a well-performing option, high on a poor one — so
// the group's E2 process steers every client toward the bad option. Since
// Pytheas has no client authentication of measurements, a bot can also
// submit several reports per epoch (ReportMultiplier), amplifying a small
// botnet's weight.
//
// Group membership "will not be hard to ascertain even for external
// parties" (§4.1): it is based on ISP/prefix/location, so the attacker
// simply joins from inside the target group.
type Poison struct {
	// Bots is the number of bot sessions (sessions 0..Bots-1).
	Bots int
	// ReportMultiplier is how many copies of the fake report each bot
	// submits per epoch (1 = same volume as an honest client).
	ReportMultiplier int
	// LowQoE/HighQoE are the fabricated values.
	LowQoE, HighQoE float64
}

// Defaults fills the standard bot strategy.
func (p Poison) Defaults() Poison {
	if p.ReportMultiplier <= 0 {
		p.ReportMultiplier = 1
	}
	if p.LowQoE <= 0 {
		p.LowQoE = 0.2
	}
	if p.HighQoE <= 0 {
		p.HighQoE = 4.8
	}
	return p
}

// Reports implements Attacker.
func (p Poison) Reports(session int, _ Option, trueQoE float64) []float64 {
	if session >= p.Bots {
		return []float64{trueQoE}
	}
	fake := p.HighQoE
	if trueQoE >= goodThreshold {
		fake = p.LowQoE
	}
	out := make([]float64, p.ReportMultiplier)
	for i := range out {
		out[i] = fake
	}
	return out
}

// Measure implements Attacker (bots do not touch the data path).
func (p Poison) Measure(_ int, _ Option, q float64) float64 { return q }

// IsBot implements Attacker.
func (p Poison) IsBot(s int) bool { return s < p.Bots }

// Throttle is the §4.1 MitM/operator attack: no fake reports at all.
// The attacker sits on the paths of a subset of the group's sessions and
// degrades the traffic of those using the target option ("throttle user
// flows to/from a particular CDN site, while prioritizing traffic to
// others"). The honest clients then truthfully report bad QoE, the group
// stampedes to the other site, and — if that site lacks capacity — the
// whole group's QoE collapses.
type Throttle struct {
	// Sessions is the group population (to resolve the coverage).
	Sessions int
}

// The Throttle attack's reach: it degrades option 0, on the paths of the
// first ThrottleCoverage of the sessions (by index, deterministic), and
// multiplies their measured QoE there by ThrottleSeverity.
const (
	throttleTarget   Option  = 0
	ThrottleCoverage float64 = 0.7
	ThrottleSeverity float64 = 0.2
)

// Reports implements Attacker: everyone reports the truth (as they
// experienced it).
func (t Throttle) Reports(_ int, _ Option, q float64) []float64 { return []float64{q} }

// Measure implements Attacker: intercepted sessions on the target option
// see degraded service.
func (t Throttle) Measure(session int, opt Option, q float64) float64 {
	if opt == throttleTarget && session < int(ThrottleCoverage*float64(t.Sessions)) {
		return q * ThrottleSeverity
	}
	return q
}

// IsBot implements Attacker: there are no bots — every victim is honest,
// which is what makes this attack hard to filter.
func (t Throttle) IsBot(int) bool { return false }
