package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// EventKind identifies one structured trace event type.
type EventKind uint8

// Event kinds. Arg is kind-specific: the sequence number for mispredicts,
// the busy duration in cycles for repairs, the coalesced run length for OBQ
// coalesces, and the cache level (1-based) for prefetch hits.
const (
	EvMispredict EventKind = iota
	EvEarlyResteer
	EvRepair
	EvOBQCoalesce
	EvPrefetchHit
	numEventKinds
)

var eventNames = [numEventKinds]string{
	EvMispredict:   "mispredict",
	EvEarlyResteer: "early-resteer",
	EvRepair:       "repair",
	EvOBQCoalesce:  "obq-coalesce",
	EvPrefetchHit:  "prefetch-hit",
}

// String returns the kind's stable wire name.
func (k EventKind) String() string {
	if k < numEventKinds {
		return eventNames[k]
	}
	return fmt.Sprintf("event-%d", uint8(k))
}

// eventKindByName inverts eventNames for the JSONL decoder.
func eventKindByName(name string) (EventKind, bool) {
	for k, n := range eventNames {
		if n == name {
			return EventKind(k), true
		}
	}
	return 0, false
}

// Event is one structured trace record: a kind, the core cycle it occurred
// on, the branch PC involved (0 when not applicable) and a kind-specific
// argument.
type Event struct {
	Kind  EventKind
	Cycle int64
	PC    uint64
	Arg   int64
}

// Tracer records events into a fixed-capacity ring buffer. When the ring
// wraps, the oldest events are overwritten — the tracer never allocates
// after construction and never blocks the simulation. A nil *Tracer is the
// disabled state; the caller's nil check is the entire disabled-path cost.
type Tracer struct {
	ring  []Event
	pos   int
	total uint64

	// Observer, when non-nil, is invoked synchronously for every emitted
	// event (in addition to ring recording). It runs on the simulation
	// goroutine: keep it cheap.
	Observer func(Event)
}

// NewTracer returns a tracer with the given ring capacity (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{ring: make([]Event, capacity)}
}

// Emit records one event.
func (t *Tracer) Emit(kind EventKind, cycle int64, pc uint64, arg int64) {
	t.ring[t.pos] = Event{Kind: kind, Cycle: cycle, PC: pc, Arg: arg}
	t.pos++
	if t.pos == len(t.ring) {
		t.pos = 0
	}
	t.total++
	if t.Observer != nil {
		t.Observer(Event{Kind: kind, Cycle: cycle, PC: pc, Arg: arg})
	}
}

// Total returns the number of events emitted over the run, including any
// overwritten by ring wrap-around.
func (t *Tracer) Total() uint64 { return t.total }

// Events returns the retained events, oldest first.
func (t *Tracer) Events() []Event {
	n := int(t.total)
	if n > len(t.ring) {
		n = len(t.ring)
	}
	out := make([]Event, 0, n)
	start := t.pos - n
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < n; i++ {
		out = append(out, t.ring[(start+i)%len(t.ring)])
	}
	return out
}

// jsonlEvent is the JSONL wire form. PC is hex for readability; extra label
// fields ride alongside (workload, scheme) and are ignored by the decoder.
type jsonlEvent struct {
	Cycle int64  `json:"cycle"`
	Event string `json:"event"`
	PC    string `json:"pc,omitempty"`
	Arg   int64  `json:"arg"`
}

// WriteJSONL writes the retained events as one JSON object per line.
// labels, when non-empty, are appended to every line as extra string fields
// (e.g. workload/scheme identification for merged multi-run traces).
func (t *Tracer) WriteJSONL(w io.Writer, labels map[string]string) error {
	return WriteEventsJSONL(w, t.Events(), labels)
}

// WriteEventsJSONL writes events as JSONL with optional label fields.
func WriteEventsJSONL(w io.Writer, events []Event, labels map[string]string) error {
	bw := bufio.NewWriter(w)
	for _, e := range events {
		m := map[string]any{
			"cycle": e.Cycle,
			"event": e.Kind.String(),
			"arg":   e.Arg,
		}
		if e.PC != 0 {
			m["pc"] = fmt.Sprintf("0x%x", e.PC)
		}
		for k, v := range labels {
			m[k] = v
		}
		b, err := json.Marshal(m)
		if err != nil {
			return err
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DecodeJSONL parses a JSONL event stream produced by WriteJSONL, ignoring
// any label fields. Unknown event names or malformed lines are errors.
func DecodeJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var je jsonlEvent
		if err := json.Unmarshal(raw, &je); err != nil {
			return nil, fmt.Errorf("jsonl line %d: %w", line, err)
		}
		kind, ok := eventKindByName(je.Event)
		if !ok {
			return nil, fmt.Errorf("jsonl line %d: unknown event %q", line, je.Event)
		}
		var pc uint64
		if je.PC != "" {
			if _, err := fmt.Sscanf(je.PC, "0x%x", &pc); err != nil {
				return nil, fmt.Errorf("jsonl line %d: bad pc %q: %w", line, je.PC, err)
			}
		}
		out = append(out, Event{Kind: kind, Cycle: je.Cycle, PC: pc, Arg: je.Arg})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteChromeTrace writes the retained events in Chrome trace_event JSON
// array format (load via chrome://tracing or Perfetto). Cycles map to
// microseconds 1:1. Repairs become duration ("X") events spanning their
// busy window; everything else becomes an instant ("i") event.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return WriteEventsChromeTrace(w, t.Events())
}

// WriteEventsChromeTrace writes events in Chrome trace_event format.
func WriteEventsChromeTrace(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	for i, e := range events {
		var rec map[string]any
		args := map[string]any{"arg": e.Arg}
		if e.PC != 0 {
			args["pc"] = fmt.Sprintf("0x%x", e.PC)
		}
		if e.Kind == EvRepair && e.Arg > 0 {
			rec = map[string]any{
				"name": e.Kind.String(), "ph": "X",
				"ts": e.Cycle, "dur": e.Arg,
				"pid": 1, "tid": int(e.Kind) + 1, "args": args,
			}
		} else {
			rec = map[string]any{
				"name": e.Kind.String(), "ph": "i", "s": "t",
				"ts":  e.Cycle,
				"pid": 1, "tid": int(e.Kind) + 1, "args": args,
			}
		}
		b, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}
