package core

import (
	"fmt"
	"strings"

	"bulkpim/internal/mem"
)

// EventID names one recorded memory event. 0 means "initial value" /
// unknown writer.
type EventID = uint64

// Event is one recorded memory operation.
type Event struct {
	ID     EventID
	Thread int
	Op     OpRef
	Label  string
}

// Recorder builds the happens-before relation of an execution and detects
// cycles in it — the formal statement of the paper's Fig. 1 problem: "a
// cyclic ordering without a well-defined happen-before relation". The
// relation is the union of:
//
//   - program order edges the model guarantees (OrderedAfter, Table I),
//   - rf: writer → reader (reads-from),
//   - ws: the per-line write serialization order,
//   - fr: reader → the write that overwrites the value it observed.
//
// An acyclic union means the execution is explainable by the model; a cycle
// means the hardware violated its own ordering rules (e.g. a stale cached
// value observed after a PIM op, §I).
type Recorder struct {
	// Model selects which program-order edges are guaranteed.
	Model Model

	events     []Event
	threadOps  map[int][]EventID
	lineWrites map[mem.LineAddr][]EventID
	rf         map[EventID]EventID // reader -> writer (0 = initial value)
	readLine   map[EventID]mem.LineAddr
}

// NewRecorder returns a recorder for model m. A nil *Recorder is "off":
// callers test for nil before recording.
func NewRecorder(m Model) *Recorder {
	return &Recorder{
		Model:      m,
		threadOps:  make(map[int][]EventID),
		lineWrites: make(map[mem.LineAddr][]EventID),
		rf:         make(map[EventID]EventID),
		readLine:   make(map[EventID]mem.LineAddr),
	}
}

// RecordOp appends an operation to thread's program order and returns its
// event ID (first ID is 1).
func (r *Recorder) RecordOp(thread int, op OpRef, label string) EventID {
	id := EventID(len(r.events) + 1)
	r.events = append(r.events, Event{ID: id, Thread: thread, Op: op, Label: label})
	r.threadOps[thread] = append(r.threadOps[thread], id)
	return id
}

// RecordWrite appends event ev to line's write-serialization order. Call it
// at the operation's visibility point (store drain to an M-state line, PIM
// execution in the memory array).
func (r *Recorder) RecordWrite(ev EventID, line mem.LineAddr) {
	if ev == 0 {
		return
	}
	ws := r.lineWrites[line]
	if n := len(ws); n > 0 && ws[n-1] == ev {
		return // idempotent for multi-word stores to one line
	}
	r.lineWrites[line] = append(ws, ev)
}

// RecordRead links reader ev to the writer whose value it observed
// (writer 0 = initial memory contents).
func (r *Recorder) RecordRead(ev EventID, line mem.LineAddr, writer EventID) {
	if ev == 0 {
		return
	}
	r.rf[ev] = writer
	r.readLine[ev] = line
}

// Events returns the number of recorded events.
func (r *Recorder) Events() int { return len(r.events) }

// Event returns a recorded event by ID.
func (r *Recorder) Event(id EventID) Event { return r.events[id-1] }

// Cycle is a happens-before cycle: a sequence of events each ordered before
// the next, with the last ordered before the first.
type Cycle struct {
	Events []Event
	Kinds  []string // edge kind leaving each event: po/rf/ws/fr
}

func (c *Cycle) String() string {
	if c == nil {
		return "<no cycle>"
	}
	var b strings.Builder
	for i, e := range c.Events {
		fmt.Fprintf(&b, "[T%d %s %s]", e.Thread, e.Op.Class, e.Label)
		fmt.Fprintf(&b, " -%s-> ", c.Kinds[i])
	}
	if len(c.Events) > 0 {
		e := c.Events[0]
		fmt.Fprintf(&b, "[T%d %s %s]", e.Thread, e.Op.Class, e.Label)
	}
	return b.String()
}

type hbEdge struct {
	to   EventID
	kind string
}

// FindCycle builds the happens-before graph and returns a cycle if one
// exists, or nil for a consistent execution. Cost is quadratic in the
// longest thread's op count; recorders are meant for litmus-scale runs.
func (r *Recorder) FindCycle() *Cycle {
	n := len(r.events)
	adj := make([][]hbEdge, n+1)

	// Program order, filtered to guaranteed edges (Table I).
	for _, ops := range r.threadOps {
		for i := 0; i < len(ops); i++ {
			for j := i + 1; j < len(ops); j++ {
				a, b := r.events[ops[i]-1], r.events[ops[j]-1]
				if OrderedAfter(r.Model, a.Op, b.Op) {
					adj[ops[i]] = append(adj[ops[i]], hbEdge{ops[j], "po"})
				}
			}
		}
	}

	// Write serialization.
	for _, ws := range r.lineWrites {
		for i := 1; i < len(ws); i++ {
			adj[ws[i-1]] = append(adj[ws[i-1]], hbEdge{ws[i], "ws"})
		}
	}

	// Reads-from and from-read.
	for reader, writer := range r.rf {
		line := r.readLine[reader]
		ws := r.lineWrites[line]
		if writer != 0 {
			adj[writer] = append(adj[writer], hbEdge{reader, "rf"})
			for i, w := range ws {
				if w == writer {
					if i+1 < len(ws) {
						adj[reader] = append(adj[reader], hbEdge{ws[i+1], "fr"})
					}
					break
				}
			}
		} else if len(ws) > 0 {
			// Read of the initial value precedes every write of the line.
			adj[reader] = append(adj[reader], hbEdge{ws[0], "fr"})
		}
	}

	// Iterative DFS cycle detection.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]uint8, n+1)
	parent := make([]EventID, n+1)
	parentKind := make([]string, n+1)

	var cycleStart, cycleEnd EventID
	var cycleKind string
	var dfs func(u EventID) bool
	dfs = func(u EventID) bool {
		color[u] = gray
		for _, e := range adj[u] {
			if color[e.to] == gray {
				cycleStart, cycleEnd, cycleKind = e.to, u, e.kind
				return true
			}
			if color[e.to] == white {
				parent[e.to] = u
				parentKind[e.to] = e.kind
				if dfs(e.to) {
					return true
				}
			}
		}
		color[u] = black
		return false
	}
	for id := EventID(1); id <= EventID(n); id++ {
		if color[id] == white && dfs(id) {
			// Reconstruct the cycle from cycleEnd back to cycleStart.
			var ids []EventID
			var kinds []string
			ids = append(ids, cycleEnd)
			kinds = append(kinds, cycleKind)
			for v := cycleEnd; v != cycleStart; v = parent[v] {
				ids = append(ids, parent[v])
				kinds = append(kinds, parentKind[v])
			}
			// ids is reversed (end..start); flip to start..end.
			c := &Cycle{}
			for i := len(ids) - 1; i >= 0; i-- {
				c.Events = append(c.Events, r.events[ids[i]-1])
			}
			for i := len(kinds) - 1; i >= 0; i-- {
				c.Kinds = append(c.Kinds, kinds[i])
			}
			return c
		}
	}
	return nil
}
