package mem

import "fmt"

// ReqKind enumerates the memory operation classes that travel through the
// memory subsystem. PIM operations are "a new class of memory operations
// alongside standard memory operations" (paper §I).
type ReqKind uint8

const (
	// ReqLoad is a read of one cache line (carrying word offsets for the
	// consuming core).
	ReqLoad ReqKind = iota
	// ReqStore is a write of up to one cache line.
	ReqStore
	// ReqWriteback carries a dirty line from a cache to memory.
	ReqWriteback
	// ReqFlush requests writeback+invalidate of a single line (software
	// flush instruction, used by the SW-Flush baseline).
	ReqFlush
	// ReqPIMOp is a bulk-bitwise PIM operation addressed to a scope.
	ReqPIMOp
	// ReqScopeFence is the scope-relaxed model's per-scope fence: it scans
	// and flushes its scope at every cache level on the way to the LLC
	// (paper §V-E).
	ReqScopeFence
)

func (k ReqKind) String() string {
	switch k {
	case ReqLoad:
		return "load"
	case ReqStore:
		return "store"
	case ReqWriteback:
		return "writeback"
	case ReqFlush:
		return "flush"
	case ReqPIMOp:
		return "pimop"
	case ReqScopeFence:
		return "scopefence"
	default:
		return fmt.Sprintf("reqkind(%d)", uint8(k))
	}
}

// PIMProgram describes one bulk-bitwise PIM operation: a sequence of
// row-parallel micro-operations executed inside the scope's crossbar
// arrays. The host hardware only understands the request's scope (the
// "scope abstraction", paper §III); the program is opaque to it and
// interpreted by the PIM module. A program names no scope: one compiled
// program serves every scope it is issued to, and the module tells Apply
// which. MicroOps drives the latency model; Apply, when non-nil, performs
// the functional update on backing memory (functional mode only).
type PIMProgram struct {
	// Name labels the op for traces and stats (e.g. "cmp_ge:key").
	Name string
	// MicroOps is the number of basic array operations the op expands to;
	// execution latency = MicroOps * Config.PIMCyclesPerMicroOp.
	MicroOps int
	// Apply performs the functional memory update on the scope whose
	// base address is base; writer is the happens-before event ID
	// recorded on every line the op modifies. Only a functional module
	// calls it.
	Apply func(m *Backing, base Addr, writer uint64)
}

// Request is one memory-subsystem transaction. Requests are created by
// cores (or by caches, for writebacks) and flow core -> L1 -> LLC -> memory
// controller; OnDone is invoked when the component that completes the
// request has finished (data returned, write ordered, PIM op executed by
// its module...).
//
// A ReqPIMOp's Line is the first line of its Scope. The issuing core sets
// it so, and the PIM module passes Line.Addr() to the program's Apply as
// the scope's base: that is how one compiled program finds the scope it
// was issued to.
type Request struct {
	ID    uint64
	Kind  ReqKind
	Line  LineAddr
	Scope ScopeID // NoScope for non-PIM addresses
	Core  int     // issuing core, for ACK routing and stats

	// Prog is the program a ReqPIMOp runs on Scope.
	Prog *PIMProgram

	// Data carries the line contents: store data on the way down,
	// load fill on the way up, writeback payload. For partial-line stores
	// (uncacheable word writes) Off/Size select the written bytes.
	Data []byte
	// Off and Size describe the accessed bytes within the line (loads and
	// partial stores). Size 0 means the full line.
	Off, Size int

	// Excl marks a load miss that needs write permission (GetM).
	Excl bool

	// Uncacheable requests bypass all caches (Fig. 3 baseline).
	Uncacheable bool

	// OnDone, Ctx and Arg form the closure-free completion scheme: the
	// completing component calls Complete, which invokes OnDone(r, Ctx)
	// exactly once. There is no double-completion guard — every path that
	// completes a request does so on exactly one branch, and under pooling
	// a second completion would fire on a recycled request, which the
	// pool's double-Put panic surfaces immediately in tests. Ctx is the
	// issuer's per-request state (e.g. a *Core or burst tracker); Arg is a
	// small scalar rider (token, flag word) so issuers don't allocate a
	// context just to carry an integer.
	//
	// Pool lifecycle: a request obtained from a RequestPool is owned by
	// whichever component currently holds it; ownership transfers with the
	// request. The component that invokes the completion path releases the
	// request back to the pool — either directly (Put after a nil-OnDone
	// writeback finishes) or by convention inside the OnDone callback chain
	// (the issuer's completion code releases it once no stage needs it).
	// After release the pointer must not be touched; Data is returned to
	// the line pool iff DataPooled is set.
	//
	// A PIM op's request has two ends, which may come in either order:
	// the controller's ACK reaching the issuing core, and the module
	// completing the op (the controller then calls Complete). The core
	// marks each end in Arg and releases the request at the later one,
	// so the pointer stays live, and unique among in-flight ops, at both
	// ends, where the store buffer and the controller match on it.
	OnDone func(r *Request, ctx any)
	Ctx    any
	Arg    uint64

	// DataPooled marks Data as owned by the system's line pool: releasing
	// the request (or explicitly its data) returns the buffer for reuse.
	DataPooled bool

	// pooled tracks whether the request currently lives in a RequestPool
	// free list, to panic on double-Put instead of corrupting the pool.
	// fromPool marks requests born from a pool's arena: Put is a no-op on
	// foreign requests (tests and one-shot paths build Requests directly),
	// so release points can run unconditionally.
	pooled, fromPool bool

	// Writer is the happens-before event id of the store/PIM op that
	// produced the observed data (loads only, functional mode).
	Writer uint64
}

// Complete invokes the request's completion callback, if any. Calling it a
// second time on the same in-flight request is a protocol violation (see
// OnDone).
func (r *Request) Complete() {
	if r.OnDone != nil {
		r.OnDone(r, r.Ctx)
	}
}

func (r *Request) String() string {
	return fmt.Sprintf("req{%d %s line=%#x scope=%d core=%d}", r.ID, r.Kind, uint64(r.Line), r.Scope, r.Core)
}
