package netsim

// DebugHooks re-introduces, one switch at a time, substrate bugs that were
// found and fixed in the past, so the fuzzing oracles (internal/fuzz,
// duireport simfuzz) can prove they would have caught each of them and so
// the corpus regression tests can pin that detection forever. The
// switches are consulted only on cold paths (link failure, tap-imposed
// delay, MitM injection) or behind one predictable branch (a packet's
// release) — with every field false the per-packet hot path is unchanged
// and the zero-allocation guarantees hold.
//
// The hooks exist for tests only. They are process-global and not
// synchronized, by decision: several tests turn a hook on around a whole
// campaign.Execute, fuzz.Shrink or robustness matrix, whose networks no
// per-Network switch reaches without a new option that only tests would
// set. So a test that sets a hook must restore it in a defer and must not
// call Parallel(), which keeps it from overlapping any other test of its
// binary; TestDebugHookTestsStaySequential in the root package checks
// both rules over every test file.
var DebugHooks struct {
	// DisableFailureFlush reverts the link-failure fix: SetUp(false) no
	// longer flushes queued/serializing packets, so a stale queue survives
	// on a down link (caught by the audit "queue-survives-down" rule).
	DisableFailureFlush bool
	// TapChainShortCircuit reverts the tap-chain fix: the first delaying
	// tap immediately schedules the packet past the rest of the chain
	// without recording tapHeld occupancy (caught by the audit
	// "send-conservation" rule).
	TapChainShortCircuit bool
	// SkipInjectedCount reverts the Injector accounting fix: injected
	// packets enter the link uncounted in LinkStats.Injected (caught by
	// the audit "send-conservation" rule).
	SkipInjectedCount bool
	// SkipFaultDropCount miscounts the fault plane: packets dropped as
	// gray-failure loss never increment LinkStats.FaultDrop (caught by the
	// audit "send-conservation" rule).
	SkipFaultDropCount bool
	// SkipDuplicatedCount miscounts the fault plane: extra copies created
	// by duplication enter the link uncounted in LinkStats.Duplicated
	// (caught by the audit "send-conservation" rule).
	SkipDuplicatedCount bool
	// DisableLinkLanes is not a bug switch: it routes every packet's
	// delivery through the pre-lane closure scheduling path, as the A/B
	// baseline for the link-batching benchmarks and the lane/closure
	// trace-identity test. Serialization-done transitions are settled
	// lazily either way. Traces must be byte-identical either way.
	DisableLinkLanes bool
	// PoisonReleased is not a bug switch: at every end of life (see the
	// package doc) it overwrites a recyclable packet with poison values
	// instead of returning it to the network's free list, and the packet
	// is never issued again. Any read of a released packet then changes
	// the output, so tests run identical workloads with it on and off and
	// require byte-identical results.
	PoisonReleased bool
}
