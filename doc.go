// Package dui is an attack/defense laboratory for data-driven networks,
// reproducing "(Self) Driving Under the Influence: Intoxicating
// Adversarial Network Inputs" (Meier et al., HotNets 2019).
//
// Data-driven ("self-driving") networks take control decisions from
// data-plane signals: Blink reroutes prefixes when monitored TCP flows
// retransmit, Pytheas steers clients by their QoE reports, PCC picks
// sending rates by online utility experiments, and traceroute builds
// topology views from unauthenticated ICMP replies. Every one of those
// signals can be forged by whoever can send packets — which, on the
// Internet, is everyone. This module implements the systems, the attacks,
// the theory, and the §5 supervisor countermeasures, on a deterministic
// discrete-event network simulator.
//
// # Layout
//
// The root package holds only this doc and the module-wide tests
// (per-experiment benchmarks, the audited Fig 2 parity check, entry-point
// smoke tests, doc/format lint, the reachability gate that keeps
// library code no program links out of internal/, and the knob gate that
// keeps config fields no program sets to a value of its own out of it). The
// library is the internal packages, imported directly by every caller:
//
//   - internal/stats, internal/graph, internal/packet: deterministic
//     randomness, graphs, and the packet model.
//   - internal/netsim: the discrete-event simulator with the §2 attacker
//     privileges (host injection, MitM link taps, operator control) as
//     first-class hooks.
//   - internal/tcpflow, internal/trace: a compact TCP endpoint model and
//     the synthetic workloads standing in for CAIDA traces.
//   - internal/blink, internal/pytheas, internal/pcc, internal/nethide,
//     internal/sppifo, internal/sketch, internal/ron, internal/dapper,
//     internal/conntrack, internal/bnn: the case-study systems and their
//     attacks.
//   - internal/supervisor: the §5 driver/supervisor countermeasures.
//
// # Quick start
//
// README.md's quick start is a complete program that runs a Blink
// failover, the §3.1 hijack and the §5 supervisor's veto from inside this
// module; TestReadmeQuickStartRuns compiles and runs it. README.md also
// tabulates the §2 threat model. Each experiment from the paper has a
// cmd/duireport subcommand and a benchmark in bench_test.go; see DESIGN.md
// for the experiment index and EXPERIMENTS.md for reproduced-vs-paper
// results.
package dui
