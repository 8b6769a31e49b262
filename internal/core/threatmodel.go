// Package core encodes the paper's threat model (§2) and a uniform
// catalog of the concrete case-study attacks implemented in this
// repository. It is the map of Fig 1: three attacker privilege levels
// (host, man in the middle, operator), two target classes (network
// infrastructure and endpoints), and for each attack the minimum
// privilege it needs and the impacts it causes.
package core

import "strings"

// Privilege is the attacker's level of access (§2.1). All attackers are
// assumed to know everything about the system except secrets such as
// cryptographic keys (Kerckhoff's principle).
type Privilege int

// Privilege levels in increasing power.
const (
	// Host: one or more compromised hosts; can manipulate their own
	// traffic and inject (including spoofed) packets.
	Host Privilege = iota
	// MitM has intercepted links: record, modify, drop, delay, inject —
	// but cannot break encryption.
	MitM
	// Operator has full control over the network, including device
	// configuration.
	Operator
)

// String names the privilege level.
func (p Privilege) String() string {
	switch p {
	case Host:
		return "host"
	case MitM:
		return "mitm"
	case Operator:
		return "operator"
	default:
		return "unknown"
	}
}

// Target is what the adversarial inputs aim at (§2.2).
type Target int

// Targets.
const (
	// Infrastructure: devices that forward traffic; data-driven
	// forwarding decisions (§3).
	Infrastructure Target = iota
	// Endpoint: applications and protocols on hosts (§4).
	Endpoint
)

// String names the target class.
func (t Target) String() string {
	if t == Infrastructure {
		return "infrastructure"
	}
	return "endpoint"
}

// Impact classifies attack consequences, combining the §3 and §4 lists.
type Impact int

// Impacts.
const (
	Privacy Impact = iota
	Performance
	Reachability
	RevenueLoss
	SituationalAwareness
	SecurityImpact
)

// String names the impact.
func (i Impact) String() string {
	switch i {
	case Privacy:
		return "privacy"
	case Performance:
		return "performance"
	case Reachability:
		return "reachability"
	case RevenueLoss:
		return "revenue-loss"
	case SituationalAwareness:
		return "situational-awareness"
	default:
		return "security"
	}
}

// ImpactsString renders a list of impacts.
func ImpactsString(is []Impact) string {
	parts := make([]string, len(is))
	for i, im := range is {
		parts[i] = im.String()
	}
	return strings.Join(parts, ",")
}
