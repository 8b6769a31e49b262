package audit

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Kind labels one traced event. Link events use the netsim probe names
// ("sent", "delivered", "queuedrop", "downdrop", "tapdrop", "faildrop");
// Blink selector events use "sample", "evict", "reset-evict", "retrans",
// and "failure".
type Kind string

// Blink selector event kinds (link kinds come from
// netsim.LinkEventKind.String()).
const (
	KindSample     Kind = "sample"
	KindEvict      Kind = "evict"
	KindResetEvict Kind = "reset-evict"
	KindRetrans    Kind = "retrans"
	KindFailure    Kind = "failure"
)

// Event is one trace record: virtual time, a per-file sequence number, the
// run (trial) it belongs to, the event kind, a location (link-direction
// index or selector cell), and the flow hash of the packet involved (0
// when no packet is attached, e.g. faildrop and failure events).
//
// Two seeded runs of the same experiment are equivalent exactly when their
// event sequences are equal element-wise; cmd/simtrace reports the first
// index where they are not.
type Event struct {
	Seq   uint64  `json:"seq"`
	T     float64 `json:"t"`
	Run   int     `json:"run"`
	Kind  Kind    `json:"k"`
	Where int     `json:"w"`
	Flow  uint64  `json:"f,omitempty"`
}

// String renders the event the way simtrace prints it.
func (e Event) String() string {
	return fmt.Sprintf("#%d t=%.9g run=%d %s w=%d flow=%#x", e.Seq, e.T, e.Run, e.Kind, e.Where, e.Flow)
}

// Recorder accumulates events from one simulation (one run). It is not
// safe for concurrent use; parallel trials each get their own Recorder and
// the per-run traces are flattened in trial order afterwards, which is
// what makes worker-count-independent traces comparable at all.
//
// Every recorder folds each event into a running count and Hash as it
// arrives. A digest recorder (NewDigestRecorder) keeps only those two, so
// a run that needs just the fingerprint — the fuzzer's determinism
// oracle — holds no trace in memory at all.
type Recorder struct {
	events []Event
	keep   bool
	n      int
	hash   uint64
}

// NewRecorder returns an empty recorder that retains every event.
func NewRecorder() *Recorder { return &Recorder{keep: true, hash: hashOffset} }

// NewDigestRecorder returns an empty recorder that keeps only the event
// count and the running Hash; Events returns nothing.
func NewDigestRecorder() *Recorder { return &Recorder{hash: hashOffset} }

// Record appends one event. Seq and Run are assigned at Flatten/Write
// time, so recorders from parallel trials stay mergeable.
func (r *Recorder) Record(t float64, kind Kind, where int, flow uint64) {
	r.n++
	r.hash = hashEvent(r.hash, t, kind, where, flow)
	if r.keep {
		r.events = append(r.events, Event{T: t, Kind: kind, Where: where, Flow: flow})
	}
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int { return r.n }

// Hash returns Hash of every event recorded so far, retained or not.
func (r *Recorder) Hash() uint64 { return r.hash }

// Events returns the recorded events with Run and Seq stamped for a
// single-run trace (run 0); a digest recorder returns none.
func (r *Recorder) Events() []Event { return Flatten([]*Recorder{r}) }

// Flatten merges per-run recorders (index = run) into one event sequence
// with globally increasing Seq and the Run field stamped. Nil recorders
// (runs that recorded nothing) are skipped.
func Flatten(recs []*Recorder) []Event {
	n := 0
	for _, r := range recs {
		if r != nil {
			n += len(r.events)
		}
	}
	out := make([]Event, 0, n)
	seq := uint64(0)
	for run, r := range recs {
		if r == nil {
			continue
		}
		for _, ev := range r.events {
			ev.Seq = seq
			ev.Run = run
			out = append(out, ev)
			seq++
		}
	}
	return out
}

// WriteJSONL writes events one JSON object per line. float64 timestamps
// are encoded in Go's shortest round-trip form, so identical runs produce
// byte-identical files.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a trace written by WriteJSONL.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(b, &ev); err != nil {
			return nil, fmt.Errorf("trace line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Hash folds an event sequence into one FNV-1a-style 64-bit digest. Two
// traces hash equal iff (up to 64-bit collision) they are element-wise
// identical, which is how the fuzzer's determinism oracle compares a
// scenario's double run without retaining either trace. Seq and Run are
// not part of the digest.
func Hash(events []Event) uint64 {
	h := uint64(hashOffset)
	for _, ev := range events {
		h = hashEvent(h, ev.T, ev.Kind, ev.Where, ev.Flow)
	}
	return h
}

const (
	hashOffset = 14695981039346656037
	hashPrime  = 1099511628211
)

// hashEvent folds one event into h, byte by byte: the timestamp's bits,
// the kind's bytes, the location, and the flow hash.
func hashEvent(h uint64, t float64, kind Kind, where int, flow uint64) uint64 {
	h = hashWord(h, math.Float64bits(t))
	for i := 0; i < len(kind); i++ {
		h ^= uint64(kind[i])
		h *= hashPrime
	}
	h = hashWord(h, uint64(where))
	return hashWord(h, flow)
}

// hashWord folds the eight bytes of x into h, low byte first.
func hashWord(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= hashPrime
		x >>= 8
	}
	return h
}

// Diff returns the index of the first event where the two traces diverge
// (a length mismatch diverges at the shorter trace's length). ok is false
// when the traces are identical.
func Diff(a, b []Event) (idx int, ok bool) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i, true
		}
	}
	if len(a) != len(b) {
		return n, true
	}
	return 0, false
}
