package netsim

import "dui/internal/packet"

// FaultVerdict is what the fault plane decides about one packet entering a
// link direction. The zero value passes the packet through untouched. Drop
// is final: a dropped packet is never duplicated, delayed, or replaced.
type FaultVerdict struct {
	Drop      bool           // discard, counted as LinkStats.FaultDrop
	Duplicate int            // extra copies to enqueue (counted as Duplicated)
	Delay     float64        // extra seconds before the packet enters the queue
	Replace   *packet.Packet // if non-nil, forward this (e.g. corrupted) packet instead
}

// LinkFault is the benign-fault counterpart of Tap: a per-link stage that
// models gray failure — stochastic loss, corruption, duplication, and
// latency jitter — on packets entering one direction of the link. Unlike a
// tap it is not an attacker privilege; it belongs to the environment, so it
// sees injected traffic too. Implementations live in internal/faults and
// must be deterministic functions of their own seeded RNG stream.
type LinkFault interface {
	// Apply is called once per packet entering the link, after the tap
	// chain (and any tap-imposed delay) and before queueing.
	Apply(now float64, p *packet.Packet, dir Direction) FaultVerdict
}

// Direction distinguishes the two directions of a (full-duplex) link.
type Direction int

// Link directions: AToB is from the first-attached node toward the second.
const (
	AToB Direction = iota
	BToA
)

// TapVerdict is what a MitM tap decides about one intercepted packet.
// The zero value passes the packet through untouched.
type TapVerdict struct {
	Drop    bool           // silently discard
	Delay   float64        // extra seconds before the packet enters the link
	Replace *packet.Packet // if non-nil, forward this packet instead
}

// Tap is the man-in-the-middle privilege of §2.1: an observer on one link
// that can record, modify, drop, and delay traffic crossing it. Injection
// is done through the *Injector the tap receives at attach time. A tap
// cannot break encryption — it sees the packet structs as a wire observer
// would.
type Tap interface {
	// Intercept is called once per packet entering the link, before
	// queueing. dir tells the direction of travel.
	Intercept(now float64, p *packet.Packet, dir Direction) TapVerdict
}

// TapFunc adapts a function to the Tap interface.
type TapFunc func(now float64, p *packet.Packet, dir Direction) TapVerdict

// Intercept implements Tap.
func (f TapFunc) Intercept(now float64, p *packet.Packet, dir Direction) TapVerdict {
	return f(now, p, dir)
}

// Injector lets a tap originate traffic on the link it occupies, in either
// direction, as the MitM attacker model allows.
type Injector struct {
	link *Link
}

// Inject sends p toward the receiver in direction dir, entering the link
// now. Injected packets bypass taps (the attacker does not intercept
// herself); they are counted in LinkStats.Injected as well as Sent, so the
// send-layer conservation invariant stays checkable.
func (in *Injector) Inject(p *packet.Packet, dir Direction) {
	if !DebugHooks.SkipInjectedCount {
		in.link.dir[dir].stats.Injected++
	}
	in.link.ingress(p, dir)
}

// LinkStats counts per-direction link activity. The counters satisfy two
// conservation identities that internal/audit checks:
//
//	Offered + Injected + Duplicated == TapDrop + FaultDrop + held + Sent
//	Sent == Delivered + QueueDrop + DownDrop + queued + onWire
//
// where (queued, onWire, held) is the instantaneous Occupancy; once the
// link drains all three occupancy terms are zero and the identities become
// exact equalities over the counters alone.
type LinkStats struct {
	Offered    uint64 // packets presented by the attached nodes (before taps)
	Injected   uint64 // packets originated by a MitM injector (bypass taps)
	Duplicated uint64 // extra copies created by the fault plane
	Sent       uint64 // packets that entered the link, including ones then lost to down/drop-tail
	Delivered  uint64 // packets handed to the far node
	QueueDrop  uint64 // drop-tail losses
	DownDrop   uint64 // lost to link-down: arrived while down, or queued when the link failed
	TapDrop    uint64 // dropped by a MitM tap
	FaultDrop  uint64 // dropped by the fault plane (gray-failure loss)
	Bytes      uint64 // bytes delivered
}

// LinkEventKind labels one probe observation on a link (see LinkProbe).
type LinkEventKind uint8

// Link probe event kinds. LinkSent fires for every packet entering the
// link (mirroring LinkStats.Sent) and is followed by LinkDownDrop or
// LinkQueueDrop when the packet is immediately lost. LinkFailDrop reports
// a queued packet flushed by a link failure; the packet itself is no
// longer available, so the probe receives a nil *packet.Packet.
// LinkFaultDrop reports a packet lost to the fault plane; LinkDuplicated
// fires once per extra copy the fault plane creates, after the copy's own
// LinkSent.
const (
	LinkSent LinkEventKind = iota
	LinkDelivered
	LinkQueueDrop
	LinkDownDrop
	LinkTapDrop
	LinkFailDrop
	LinkFaultDrop
	LinkDuplicated
)

// String names the event kind for traces and diagnostics.
func (k LinkEventKind) String() string {
	switch k {
	case LinkSent:
		return "sent"
	case LinkDelivered:
		return "delivered"
	case LinkQueueDrop:
		return "queuedrop"
	case LinkDownDrop:
		return "downdrop"
	case LinkTapDrop:
		return "tapdrop"
	case LinkFailDrop:
		return "faildrop"
	case LinkFaultDrop:
		return "faultdrop"
	case LinkDuplicated:
		return "duplicated"
	}
	return "unknown"
}

// LinkProbe observes every link event when installed via
// Network.SetLinkProbe. p is nil for LinkFailDrop. Probes run synchronously
// on the simulation goroutine; they must not mutate the network.
type LinkProbe func(now float64, kind LinkEventKind, l *Link, dir Direction, p *packet.Packet)

// Link is a full-duplex point-to-point link with per-direction transmission
// rate, propagation delay, and a drop-tail queue measured in packets.
type Link struct {
	net  *Network
	a, b *Node
	idx  int

	// RateBps is the transmission rate in bits per second; 0 means
	// infinite (no serialization delay). Delay is one-way propagation in
	// seconds. QueueCap is the per-direction queue limit in packets;
	// 0 means unlimited.
	RateBps  float64
	Delay    float64
	QueueCap int

	up    bool
	taps  []Tap
	fault LinkFault

	dir [2]linkDir
}

type linkDir struct {
	busyUntil float64
	qlen      int // packets queued or serializing (not yet on the wire)
	onWire    int // packets past serialization, propagating toward the peer
	tapHeld   int // packets held in a tap- or fault-imposed delay, not yet on the link
	stats     LinkStats

	// wires holds the serialization-done transition of every queued or
	// serializing packet. A transition is not an engine event: it keeps
	// the key Reserve gave it where it would have been scheduled, and is
	// applied — the packet leaves the queue and goes on the wire — by
	// settle, at the first read of that state at or after its key. Keys
	// enter in increasing order (the horizon only moves forward while the
	// link is up, and a failure empties the FIFO), so the passed
	// transitions are always a prefix.
	wires wireFIFO
	// deliver is the direction's batching lane (see Lane): the delivery
	// events of consecutive packets are FIFO in time, so they skip the
	// priority queue.
	deliver *Lane
	// holds are the packets a tap or fault delay keeps off the link, in a
	// min-heap on the key of the engine event that ends each hold. Those
	// events all run unhold, bound once per direction, and fire in key
	// order, so the heap's minimum is always the one firing.
	holds  []held
	unhold func()
}

// held is one packet in a tap- or fault-imposed delay. A fault hold
// carries the verdict's duplicate count; a tap hold goes back through the
// fault stage when it ends.
type held struct {
	k     Key
	p     *packet.Packet
	fault bool
	dup   int
}

// pushHold adds h to the holds heap.
func (d *linkDir) pushHold(h held) {
	q := append(d.holds, h)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.k.Before(q[parent].k) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = h
	d.holds = q
}

// popHold removes and returns the holds heap's minimum.
func (d *linkDir) popHold() held {
	q := d.holds
	top, last := q[0], q[len(q)-1]
	q[len(q)-1] = held{}
	q = q[:len(q)-1]
	i := 0
	for {
		c := 2*i + 1
		if c >= len(q) {
			break
		}
		if c+1 < len(q) && q[c+1].k.Before(q[c].k) {
			c++
		}
		if !q[c].k.Before(last.k) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if len(q) > 0 {
		q[i] = last
	}
	d.holds = q
	return top
}

// wireFIFO is a ring of pending serialization-done transitions.
type wireFIFO struct {
	buf  []wireEntry // power-of-two ring
	head int
	n    int
}

// wireEntry is one pending serialization-done transition and the handle
// that marks its packet's delivery dead if a failure flushes it first:
// a deliver-lane position, or the closure path's flag.
type wireEntry struct {
	k    Key
	pos  uint64
	dead *bool
}

func (f *wireFIFO) push(w wireEntry) {
	if f.n == len(f.buf) {
		c := 2 * len(f.buf)
		if c == 0 {
			c = 16
		}
		nb := make([]wireEntry, c)
		for i := 0; i < f.n; i++ {
			nb[i] = f.buf[(f.head+i)&(len(f.buf)-1)]
		}
		f.buf, f.head = nb, 0
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = w
	f.n++
}

// settle applies every transition whose key the engine has passed: each
// moves one packet from the queue onto the wire.
func (d *linkDir) settle(e *Engine) {
	for f := &d.wires; f.n > 0; {
		w := &f.buf[f.head]
		if !e.Passed(w.k) {
			return
		}
		f.head = (f.head + 1) & (len(f.buf) - 1)
		f.n--
		d.qlen--
		d.onWire++
	}
}

// flush drops every unsettled transition on a link failure, emptying the
// queue: each packet's delivery is marked dead, and the transition goes to
// the event heap as the no-op event it would have been, at its reserved
// key.
func (d *linkDir) flush(e *Engine) {
	d.qlen = 0
	for f := &d.wires; f.n > 0; f.n-- {
		w := f.buf[f.head]
		f.head = (f.head + 1) & (len(f.buf) - 1)
		if w.dead != nil {
			*w.dead = true
		} else {
			d.deliver.Flag(w.pos)
		}
		e.AtKey(w.k, nop)
	}
}

// Reserved implements Reserver: it settles the direction and returns its
// unsettled transitions.
func (d *linkDir) Reserved() int {
	d.settle(d.deliver.eng)
	return d.wires.n
}

// Up reports whether the link is currently up.
func (l *Link) Up() bool { return l.up }

// SetUp changes link state. Taking the link down drops everything still
// queued or serializing in both directions (counted as DownDrop) and
// resets the serialization horizon; only packets already on the wire —
// whose serialization completed before the failure — are still delivered.
// Packets sent while the link is down are counted and lost.
func (l *Link) SetUp(up bool) {
	if l.up == up {
		return
	}
	l.up = up
	if up {
		return
	}
	if DebugHooks.DisableFailureFlush {
		return
	}
	eng := l.net.eng
	for dir := range l.dir {
		d := &l.dir[dir]
		d.settle(eng)
		n := d.qlen
		d.stats.DownDrop += uint64(n)
		d.flush(eng)
		d.busyUntil = eng.Now()
		for i := 0; i < n; i++ {
			l.net.probeLink(LinkFailDrop, l, Direction(dir), nil)
		}
	}
}

// Stats returns a copy of the counters for one direction.
func (l *Link) Stats(dir Direction) LinkStats { return l.dir[dir].stats }

// Occupancy returns the instantaneous packet population of one direction:
// queued packets awaiting (or in) serialization, packets on the wire, and
// packets held by a delaying tap or fault stage. All three are zero once
// the link drains.
func (l *Link) Occupancy(dir Direction) (queued, onWire, tapHeld int) {
	d := &l.dir[dir]
	d.settle(l.net.eng)
	return d.qlen, d.onWire, d.tapHeld
}

// Index returns the link's dense index within its network (creation order).
func (l *Link) Index() int { return l.idx }

// Nodes returns the two endpoints in attachment order.
func (l *Link) Nodes() (a, b *Node) { return l.a, l.b }

// Peer returns the endpoint opposite n, or nil if n is not attached.
func (l *Link) Peer(n *Node) *Node {
	switch n {
	case l.a:
		return l.b
	case l.b:
		return l.a
	default:
		return nil
	}
}

// AttachTap installs a MitM tap on the link and returns the injector bound
// to it. Multiple taps run in attachment order; a drop by any tap is final,
// and delays accumulate across the chain — every tap sees the packet at
// interception time, with the summed delay applied before the packet
// enters the link.
func (l *Link) AttachTap(t Tap) *Injector {
	l.taps = append(l.taps, t)
	return &Injector{link: l}
}

// SetFault installs the link's fault stage (nil removes it). A link has
// one fault slot; compose several fault processes with faults.Multi rather
// than stacking calls — a second SetFault replaces the first.
func (l *Link) SetFault(f LinkFault) { l.fault = f }

// directionFrom returns the travel direction for a packet sent by n.
func (l *Link) directionFrom(n *Node) Direction {
	if n == l.a {
		return AToB
	}
	return BToA
}

// send is the node-facing entry: applies taps, then queues the packet.
// A packet a tap drops or replaces ends its life here.
func (l *Link) send(from *Node, p *packet.Packet) {
	dir := l.directionFrom(from)
	d := &l.dir[dir]
	d.stats.Offered++
	now := l.net.eng.Now()
	delay := 0.0
	for _, t := range l.taps {
		v := t.Intercept(now, p, dir)
		if v.Drop {
			d.stats.TapDrop++
			l.net.probeLink(LinkTapDrop, l, dir, p)
			l.net.release(p)
			return
		}
		if v.Replace != nil && v.Replace != p {
			l.net.release(p)
			p = v.Replace
		}
		if v.Delay > 0 {
			delay += v.Delay
			if DebugHooks.TapChainShortCircuit {
				pp := p
				l.net.eng.After(delay, func() { l.enqueue(pp, dir) })
				return
			}
		}
	}
	if delay > 0 {
		l.hold(d, held{p: p}, delay)
		return
	}
	l.ingress(p, dir)
}

// hold keeps p off the link for delay seconds, counted in the tapHeld
// occupancy term: it reserves the key a per-packet closure would have
// been scheduled at, queues the direction's unhold callback there, and
// files the packet under that key.
func (l *Link) hold(d *linkDir, h held, delay float64) {
	eng := l.net.eng
	d.tapHeld++
	h.k = eng.Reserve(eng.now + delay)
	eng.AtKey(h.k, d.unhold)
	d.pushHold(h)
}

// unholdFrom ends the hold whose event is firing: a tap hold re-enters the
// fault stage, a fault hold goes on to the queue with its duplicates.
func (l *Link) unholdFrom(d *linkDir, dir Direction) {
	h := d.popHold()
	d.tapHeld--
	if h.fault {
		l.faultEnqueue(h.p, dir, h.dup)
		return
	}
	l.ingress(h.p, dir)
}

// ingress is the fault-plane stage between the tap chain (or injector) and
// the queue. With no fault installed the cost is one nil check; otherwise
// the verdict may drop the packet (FaultDrop), substitute a corrupted copy,
// hold it (counted in the tapHeld occupancy term, like a tap delay), or
// append duplicate copies.
func (l *Link) ingress(p *packet.Packet, dir Direction) {
	if l.fault == nil {
		l.enqueue(p, dir)
		return
	}
	v := l.fault.Apply(l.net.eng.Now(), p, dir)
	if v.Drop {
		d := &l.dir[dir]
		if !DebugHooks.SkipFaultDropCount {
			d.stats.FaultDrop++
		}
		l.net.probeLink(LinkFaultDrop, l, dir, p)
		l.net.release(p)
		return
	}
	if v.Replace != nil && v.Replace != p {
		l.net.release(p)
		p = v.Replace
	}
	if v.Delay > 0 {
		l.hold(&l.dir[dir], held{p: p, fault: true, dup: v.Duplicate}, v.Delay)
		return
	}
	l.faultEnqueue(p, dir, v.Duplicate)
}

// faultEnqueue enqueues p plus dup fault-plane copies. Each copy is counted
// in Duplicated before its own enqueue, so the send-layer conservation
// identity balances at every probe, and is cloned because forwarding
// mutates TTL in place. The copies are cloned from p and the probes read
// it, so p stays alive through the loop even when the queue drops it, and
// ends its life only after.
func (l *Link) faultEnqueue(p *packet.Packet, dir Direction, dup int) {
	dropped := !l.admit(p, dir)
	d := &l.dir[dir]
	for i := 0; i < dup; i++ {
		if !DebugHooks.SkipDuplicatedCount {
			d.stats.Duplicated++
		}
		l.enqueue(l.net.CloneTCP(p), dir)
		l.net.probeLink(LinkDuplicated, l, dir, p)
	}
	if dropped {
		l.net.release(p)
	}
}

// enqueue admits p to the queue; a packet the link drops ends its life
// here.
func (l *Link) enqueue(p *packet.Packet, dir Direction) {
	if !l.admit(p, dir) {
		l.net.release(p)
	}
}

// admit models serialization, queueing, propagation, and drop-tail loss.
// It reports whether the packet got onto the link; a dropped packet is
// left to the caller.
func (l *Link) admit(p *packet.Packet, dir Direction) bool {
	d := &l.dir[dir]
	d.stats.Sent++
	if !l.up {
		d.stats.DownDrop++
		l.net.probeLink(LinkSent, l, dir, p)
		l.net.probeLink(LinkDownDrop, l, dir, p)
		return false
	}
	eng := l.net.eng
	d.settle(eng)
	if l.QueueCap > 0 && d.qlen >= l.QueueCap {
		d.stats.QueueDrop++
		l.net.probeLink(LinkSent, l, dir, p)
		l.net.probeLink(LinkQueueDrop, l, dir, p)
		return false
	}
	now := eng.Now()
	start := now
	if d.busyUntil > start {
		start = d.busyUntil
	}
	tx := 0.0
	if l.RateBps > 0 {
		tx = float64(p.Size) * 8 / l.RateBps
	}
	d.busyUntil = start + tx
	d.qlen++
	l.net.probeLink(LinkSent, l, dir, p)
	// The serialization-done transition takes its seq after the probe
	// (which may schedule) and before the delivery event, exactly as two
	// scheduled events would: a failure at exactly tw flushes the packet
	// iff the failure's key comes first.
	tw, td := start+tx, start+tx+l.Delay
	w := wireEntry{k: eng.Reserve(tw)}
	dst := l.b
	if dir == BToA {
		dst = l.a
	}
	// Fast path: the delivery rides the direction's lane — one ring
	// append, no closure. Times are FIFO by construction, but a failure
	// resets the horizon, so a new delivery can regress behind stale
	// pending entries; then it takes the closure path. Seq assignment is
	// identical on either path, so the execution order is too.
	if !DebugHooks.DisableLinkLanes && d.deliver.CanPush(td) {
		w.pos = d.deliver.NextPos()
		d.wires.push(w)
		d.deliver.push(td, LaneEntry{P: p})
		return true
	}
	dead := false
	w.dead = &dead
	d.wires.push(w)
	eng.At(td, func() {
		if dead {
			l.net.release(p)
			return
		}
		l.deliverPacket(d, dir, dst, p)
	})
	return true
}

// deliverPacket hands a packet that completed propagation to the far
// node. Its own serialization-done transition precedes it, so settling
// first moves it onto the wire before it is taken off.
func (l *Link) deliverPacket(d *linkDir, dir Direction, dst *Node, p *packet.Packet) {
	d.settle(l.net.eng)
	d.onWire--
	d.stats.Delivered++
	d.stats.Bytes += uint64(p.Size)
	l.net.probeLink(LinkDelivered, l, dir, p)
	dst.receive(p, l)
}

// initLanes creates the per-direction deliver lanes, registers the
// directions with the engine, whose Pending counts their unsettled
// transitions (Reserved), and binds each direction's unhold callback. An
// entry flagged OK was flushed by a link failure; its packet ends its life
// when the entry pops.
func (l *Link) initLanes() {
	for i := range l.dir {
		d := &l.dir[i]
		dir := Direction(i)
		dst := l.b
		if dir == BToA {
			dst = l.a
		}
		d.deliver = l.net.eng.NewLane(func(en LaneEntry) {
			if en.OK {
				l.net.release(en.P)
				return
			}
			l.deliverPacket(d, dir, dst, en.P)
		})
		d.unhold = func() { l.unholdFrom(d, dir) }
		l.net.eng.CountReserved(d)
	}
}
