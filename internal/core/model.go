// Package core implements the paper's primary contribution: the four
// consistency models for bulk-bitwise PIM operations (§III), their
// machine-checkable ordering rules (Table I), and the hardware structures
// that make cache flushes atomic with PIM ops — the scope buffer (§IV-A)
// and the scope bit-vector (§IV-B) — plus a happens-before recorder that
// detects ordering-rule violations such as the cyclic execution of Fig. 1,
// and an SRAM area model for the hardware-overhead claim (§VI-A).
package core

import (
	"fmt"
	"strings"

	"bulkpim/internal/mem"
)

// Model selects how PIM operations are ordered with respect to other memory
// operations. The first three values are the paper's comparison baselines
// (§VI-C, Fig. 3); the last four are the proposed consistency models, from
// strictest to most relaxed (§III).
type Model uint8

const (
	// Naive issues PIM ops with no coherence or ordering support at all.
	// It does not guarantee correct execution; it bounds the overhead of
	// the real models (§VI-C).
	Naive Model = iota
	// SWFlush is the prior-work baseline ([9,25]): software explicitly
	// flushes cache lines before issuing PIM ops. Because the flushes and
	// the PIM op are not atomic, it cannot guarantee correctness (§I,
	// Fig. 1).
	SWFlush
	// Uncacheable marks PIM-enabled scopes uncacheable, the straightforward
	// coherence solution that the paper rejects for bulk-bitwise PIM
	// because result reads lose all cache locality (§IV, Fig. 3).
	Uncacheable
	// Atomic treats a PIM op as an atomic read-modify-write on its whole
	// scope: no memory operation of the issuing thread may reorder with it
	// (§III "atomic model").
	Atomic
	// Store gives PIM ops the ordering rules of store operations under the
	// host's (x86-TSO) consistency model: later loads to other scopes may
	// bypass a pending PIM op, stores may not (§III "store model").
	Store
	// Scope lets PIM ops reorder with any operation addressed to a
	// different scope, while staying strictly ordered with operations to
	// their own scope (§III "scope model").
	Scope
	// ScopeRelaxed lets PIM ops reorder with every memory operation,
	// including those of the same scope; ordering is re-established only
	// by explicit fences: the scope-fence (within one scope) and the
	// dedicated PIM fence of [21] (between scopes) (§III "scope-relaxed
	// model").
	ScopeRelaxed
)

// ProposedModels returns the paper's four consistency models, strictest
// first.
func ProposedModels() []Model { return []Model{Atomic, Store, Scope, ScopeRelaxed} }

// AllVariants returns every run mode: the three baselines followed by the
// four proposed models.
func AllVariants() []Model {
	return []Model{Naive, SWFlush, Uncacheable, Atomic, Store, Scope, ScopeRelaxed}
}

func (m Model) String() string {
	switch m {
	case Naive:
		return "naive"
	case SWFlush:
		return "swflush"
	case Uncacheable:
		return "uncacheable"
	case Atomic:
		return "atomic"
	case Store:
		return "store"
	case Scope:
		return "scope"
	case ScopeRelaxed:
		return "scope-relaxed"
	default:
		return fmt.Sprintf("model(%d)", uint8(m))
	}
}

// ParseModel converts a name (as printed by String) back to a Model.
func ParseModel(s string) (Model, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "naive":
		return Naive, nil
	case "swflush", "sw-flush":
		return SWFlush, nil
	case "uncacheable":
		return Uncacheable, nil
	case "atomic":
		return Atomic, nil
	case "store":
		return Store, nil
	case "scope":
		return Scope, nil
	case "scope-relaxed", "scoperelaxed", "scope_relaxed":
		return ScopeRelaxed, nil
	default:
		return Naive, fmt.Errorf("core: unknown model %q", s)
	}
}

// GuaranteesCorrectness reports whether the model provides the ordering and
// coherence guarantees of §III/§IV. The three baselines do not.
func (m Model) GuaranteesCorrectness() bool { return m >= Atomic }

// RequiresACK reports whether the memory controller must acknowledge PIM op
// arrival back to the host (Fig. 6a/b). The scope-relaxed model "does not
// require the memory controller to return an ACK" (§V-E); neither do the
// baselines, which impose no ordering.
func (m Model) RequiresACK() bool { return m == Atomic || m == Store || m == Scope }

// FlushesLLCOnPIMOp reports whether PIM ops scan-and-flush their scope from
// the LLC on the way to memory (§IV). This is what makes flushes atomic
// with the op; only the four proposed models do it.
func (m Model) FlushesLLCOnPIMOp() bool { return m >= Atomic }

// ScopeStructuresInAllCaches reports whether every cache level carries a
// scope buffer and SBV (scope-relaxed), or only the LLC (Table I).
func (m Model) ScopeStructuresInAllCaches() bool { return m == ScopeRelaxed }

// NeedsScopeFence reports whether software must issue scope-fences to order
// PIM ops with same-scope memory operations (scope-relaxed only).
func (m Model) NeedsScopeFence() bool { return m == ScopeRelaxed }

// NeedsPIMFence reports whether ordering between PIM ops of different
// scopes requires the dedicated fence of [21] (scope and scope-relaxed
// models, Table I).
func (m Model) NeedsPIMFence() bool { return m == Scope || m == ScopeRelaxed }

// Definition returns the Table I row for a proposed model: allowed
// reordering, additional fences, and scope buffer/SBV placement.
type Definition struct {
	Model            Model
	AllowedReorder   string
	AdditionalFences string
	Structures       string
}

// TableI returns the paper's Table I.
func TableI() []Definition {
	return []Definition{
		{Atomic, "None", "No", "Only LLC"},
		{Store, "Same as store operations", "No", "Only LLC"},
		{Scope, "All operations to other scopes", "Ordering between scopes", "Only LLC"},
		{ScopeRelaxed, "All operations except fences", "(1) Ordering within scope and (2) between scopes", "All caches"},
	}
}

// OpClass classifies a memory operation for the ordering rules.
type OpClass uint8

const (
	OpLoad OpClass = iota
	OpStore
	OpPIM
	OpFenceFull  // MemFence: orders everything
	OpFencePIM   // dedicated PIM fence of [21]: orders PIM ops across scopes
	OpFenceScope // scope-fence: orders operations of one scope (§V-E)
)

func (c OpClass) String() string {
	switch c {
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpPIM:
		return "pim"
	case OpFenceFull:
		return "fence"
	case OpFencePIM:
		return "pimfence"
	case OpFenceScope:
		return "scopefence"
	default:
		return fmt.Sprintf("opclass(%d)", uint8(c))
	}
}

// OpRef identifies an operation for ordering purposes: its class, the scope
// it addresses (NoScope outside the PIM region; fences other than
// scope-fences use NoScope), and the line it touches (loads/stores).
type OpRef struct {
	Class OpClass
	Scope mem.ScopeID
	Line  mem.LineAddr
}

// sameLine is only meaningful for load/store pairs.
func sameLine(a, b OpRef) bool {
	return (a.Class == OpLoad || a.Class == OpStore) &&
		(b.Class == OpLoad || b.Class == OpStore) && a.Line == b.Line
}

// MayReorder reports whether, under model m, two operations issued by the
// same thread in program order (first, then second) are permitted to be
// observed out of order by another agent. This is the machine-readable
// form of Table I layered over an x86-TSO host:
//
//   - TSO base: only Store→Load may reorder, and never to the same line.
//   - Full fences order everything across them.
//   - PIM fences order PIM ops (and other PIM fences) across them.
//   - Scope-fences order operations addressed to their scope.
//   - PIM ops follow the model: atomic (never), store (as TSO stores, but
//     never with same-scope operations), scope (only with same-scope
//     operations), scope-relaxed (with everything except fences).
//
// Pairs not involving PIM ops or PIM fences are governed purely by the host
// model: the paper's models "extend, without violating, the existing host
// processor consistency model" (§III).
func MayReorder(m Model, first, second OpRef) bool {
	// Full fences are total: nothing crosses them.
	if first.Class == OpFenceFull || second.Class == OpFenceFull {
		return false
	}

	// Scope-fence: orders operations (loads, stores, PIM ops, and other
	// scope-fences) addressed to the same scope; transparent to the rest.
	if first.Class == OpFenceScope || second.Class == OpFenceScope {
		f, o := first, second
		if o.Class == OpFenceScope {
			f, o = second, first
		}
		if o.Class == OpFenceScope { // both scope-fences
			return f.Scope != o.Scope
		}
		return f.Scope != o.Scope
	}

	// PIM fence: orders PIM ops and other PIM fences across it.
	if first.Class == OpFencePIM || second.Class == OpFencePIM {
		f, o := first, second
		if o.Class == OpFencePIM {
			f, o = second, first
		}
		if o.Class == OpFencePIM { // both PIM fences
			return false
		}
		_ = f
		return o.Class != OpPIM
	}

	// PIM op pairs and PIM-vs-memory pairs follow the model.
	if first.Class == OpPIM || second.Class == OpPIM {
		p, o := first, second
		if o.Class == OpPIM {
			p, o = second, first
		}
		bothPIM := first.Class == OpPIM && second.Class == OpPIM
		sameScope := p.Scope == o.Scope
		switch m {
		case Atomic:
			return false
		case Store:
			// PIM op ≡ store: with another PIM op or a store, ordered
			// (TSO store-store); a later load may bypass an earlier PIM op
			// (TSO store→load), but "PIM ops must not reorder with memory
			// operations to the same scope" (§III).
			if sameScope {
				return false
			}
			if bothPIM || o.Class == OpStore {
				return false
			}
			// Load involved: TSO allows reordering only when the PIM op
			// is first (store→load); a load followed by a PIM op keeps
			// order (load→store).
			return first.Class == OpPIM
		case Scope:
			return !sameScope
		case ScopeRelaxed:
			return true
		default:
			// Baselines enforce nothing for PIM ops.
			return true
		}
	}

	// Host-only pair: x86-TSO. Only store→load reorders, never same line.
	if first.Class == OpStore && second.Class == OpLoad {
		return !sameLine(first, second)
	}
	return false
}

// OrderedAfter is the complement of MayReorder: the model guarantees that
// second becomes visible after first.
func OrderedAfter(m Model, first, second OpRef) bool { return !MayReorder(m, first, second) }
