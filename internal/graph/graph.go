// Package graph implements Swing's dataflow programming model (paper
// §IV-A): an application is a directed acyclic graph whose vertices are
// function units and whose edges carry data tuples.
//
// The programmer composes an AppGraph by declaring function units — a
// source, processing operators and a sink — and connecting them. A unit
// from which another receives tuples is its upstream; a unit toward which
// it sends tuples is its downstream. At deployment time the runtime
// replicates operator units across swarm devices and the routing layer
// (internal/routing) decides, per tuple, which replica receives it.
package graph

import (
	"errors"
	"fmt"
	"sort"

	"github.com/swingframework/swing/internal/tuple"
)

// Role classifies a function unit's position in the dataflow graph.
type Role uint8

// Unit roles.
const (
	RoleSource Role = iota + 1
	RoleOperator
	RoleSink
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleSource:
		return "source"
	case RoleOperator:
		return "operator"
	case RoleSink:
		return "sink"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// Emitter is passed to a function unit so it can send result tuples to its
// downstream units. Implementations are provided by the runtime (real
// mode) and the swarm simulator (simulated mode).
type Emitter interface {
	// Emit forwards a tuple toward the unit's downstream(s). The routing
	// policy of the enclosing edge decides which replica receives it.
	Emit(t *tuple.Tuple) error
}

// Processor is the user-implemented body of a function unit: the
// counterpart of the paper's FunctionUnitAPI.processData. It receives one
// tuple and emits zero or more result tuples.
//
// The input tuple and its byte fields are valid only during ProcessData:
// the live worker decodes tuples into a block it reuses for later
// frames, and their byte fields alias the frame they arrived in. A
// processor that keeps an input, or any of its byte fields, past its
// return must Clone it. Emitting the input itself is fine.
//
// Implementations must be safe to instantiate once per device replica; a
// single Processor instance is never invoked concurrently.
type Processor interface {
	ProcessData(em Emitter, t *tuple.Tuple) error
}

// ProcessorFunc adapts a plain function to the Processor interface.
type ProcessorFunc func(em Emitter, t *tuple.Tuple) error

// ProcessData implements Processor.
func (f ProcessorFunc) ProcessData(em Emitter, t *tuple.Tuple) error { return f(em, t) }

var _ Processor = ProcessorFunc(nil)

// Unit describes one function unit in an application graph.
type Unit struct {
	// ID uniquely names the unit within its graph, e.g. "detect".
	ID string
	// Role is the unit's graph position.
	Role Role
	// NewProcessor constructs a fresh Processor for each device replica.
	// It may be nil for source units whose tuples are produced by a
	// generator outside the graph (the common case in experiments).
	NewProcessor func() Processor
	// Work is the abstract compute cost of processing one tuple, in work
	// units (see internal/device: a device with capability c processes a
	// tuple in Work/c seconds). Zero means negligible compute.
	Work float64
	// OutputScale estimates the wire size of an emitted tuple as a
	// fraction of the input tuple's size. Detection/recognition stages
	// shrink payloads drastically (an image in, a name out). 0 defaults
	// to 1 (same size).
	OutputScale float64
}

// Graph is an application dataflow graph under construction or validated.
type Graph struct {
	name  string
	units map[string]*Unit
	// downstream[u] lists unit IDs that receive u's output, in insertion
	// order; upstream is the reverse index.
	downstream map[string][]string
	upstream   map[string][]string
	order      []string // unit insertion order, for deterministic walks
}

// Validation and construction errors.
var (
	ErrDupUnit      = errors.New("graph: duplicate unit id")
	ErrUnknownUnit  = errors.New("graph: unknown unit")
	ErrNoSource     = errors.New("graph: no source unit")
	ErrNoSink       = errors.New("graph: no sink unit")
	ErrCycle        = errors.New("graph: cycle detected")
	ErrUnreachable  = errors.New("graph: unit unreachable from any source")
	ErrSourceInput  = errors.New("graph: source unit has an upstream")
	ErrSinkOutput   = errors.New("graph: sink unit has a downstream")
	ErrSelfLoop     = errors.New("graph: self loop")
	ErrDupEdge      = errors.New("graph: duplicate edge")
	ErrDeadEnd      = errors.New("graph: non-sink unit has no downstream")
	ErrOrphanedUnit = errors.New("graph: non-source unit has no upstream")
)

// New returns an empty application graph with the given name.
func New(name string) *Graph {
	return &Graph{
		name:       name,
		units:      make(map[string]*Unit),
		downstream: make(map[string][]string),
		upstream:   make(map[string][]string),
	}
}

// Name returns the application name.
func (g *Graph) Name() string { return g.name }

// AddUnit registers a function unit. The unit ID must be unique.
func (g *Graph) AddUnit(u Unit) error {
	if u.ID == "" {
		return errors.New("graph: empty unit id")
	}
	if u.Role < RoleSource || u.Role > RoleSink {
		return fmt.Errorf("graph: unit %q has invalid role %d", u.ID, u.Role)
	}
	if _, dup := g.units[u.ID]; dup {
		return fmt.Errorf("%w: %q", ErrDupUnit, u.ID)
	}
	if u.Work < 0 {
		return fmt.Errorf("graph: unit %q has negative work", u.ID)
	}
	if u.OutputScale < 0 {
		return fmt.Errorf("graph: unit %q has negative output scale", u.ID)
	}
	cp := u
	g.units[u.ID] = &cp
	g.order = append(g.order, u.ID)
	return nil
}

// Connect adds a directed edge from unit `from` to unit `to`.
func (g *Graph) Connect(from, to string) error {
	fu, ok := g.units[from]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownUnit, from)
	}
	tu, ok := g.units[to]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownUnit, to)
	}
	if from == to {
		return fmt.Errorf("%w: %q", ErrSelfLoop, from)
	}
	if fu.Role == RoleSink {
		return fmt.Errorf("%w: %q", ErrSinkOutput, from)
	}
	if tu.Role == RoleSource {
		return fmt.Errorf("%w: %q", ErrSourceInput, to)
	}
	for _, d := range g.downstream[from] {
		if d == to {
			return fmt.Errorf("%w: %s->%s", ErrDupEdge, from, to)
		}
	}
	g.downstream[from] = append(g.downstream[from], to)
	g.upstream[to] = append(g.upstream[to], from)
	return nil
}

// Unit returns the unit with the given ID.
func (g *Graph) Unit(id string) (*Unit, error) {
	u, ok := g.units[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownUnit, id)
	}
	return u, nil
}

// Units returns all unit IDs in insertion order.
func (g *Graph) Units() []string {
	out := make([]string, len(g.order))
	copy(out, g.order)
	return out
}

// Downstream returns the IDs of units receiving output from id.
func (g *Graph) Downstream(id string) []string {
	out := make([]string, len(g.downstream[id]))
	copy(out, g.downstream[id])
	return out
}

// Upstream returns the IDs of units feeding into id.
func (g *Graph) Upstream(id string) []string {
	out := make([]string, len(g.upstream[id]))
	copy(out, g.upstream[id])
	return out
}

// Sources returns all source unit IDs in insertion order.
func (g *Graph) Sources() []string { return g.byRole(RoleSource) }

// Sinks returns all sink unit IDs in insertion order.
func (g *Graph) Sinks() []string { return g.byRole(RoleSink) }

// Operators returns all operator unit IDs in insertion order.
func (g *Graph) Operators() []string { return g.byRole(RoleOperator) }

func (g *Graph) byRole(r Role) []string {
	var out []string
	for _, id := range g.order {
		if g.units[id].Role == r {
			out = append(out, id)
		}
	}
	return out
}

// Validate checks the structural invariants of a complete application
// graph: at least one source and sink, acyclicity, every unit reachable
// from a source, every non-sink has a downstream and every non-source has
// an upstream.
func (g *Graph) Validate() error {
	if len(g.Sources()) == 0 {
		return ErrNoSource
	}
	if len(g.Sinks()) == 0 {
		return ErrNoSink
	}
	for _, id := range g.order {
		u := g.units[id]
		if u.Role != RoleSink && len(g.downstream[id]) == 0 {
			return fmt.Errorf("%w: %q", ErrDeadEnd, id)
		}
		if u.Role != RoleSource && len(g.upstream[id]) == 0 {
			return fmt.Errorf("%w: %q", ErrOrphanedUnit, id)
		}
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	// Reachability from sources.
	seen := make(map[string]bool, len(g.units))
	var stack []string
	stack = append(stack, g.Sources()...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] {
			continue
		}
		seen[id] = true
		stack = append(stack, g.downstream[id]...)
	}
	for _, id := range g.order {
		if !seen[id] {
			return fmt.Errorf("%w: %q", ErrUnreachable, id)
		}
	}
	return nil
}

// TopoOrder returns unit IDs in a deterministic topological order, or
// ErrCycle if the graph has a cycle.
func (g *Graph) TopoOrder() ([]string, error) {
	indeg := make(map[string]int, len(g.units))
	for _, id := range g.order {
		indeg[id] = len(g.upstream[id])
	}
	var ready []string
	for _, id := range g.order {
		if indeg[id] == 0 {
			ready = append(ready, id)
		}
	}
	sort.Strings(ready)
	out := make([]string, 0, len(g.units))
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		out = append(out, id)
		var unlocked []string
		for _, d := range g.downstream[id] {
			indeg[d]--
			if indeg[d] == 0 {
				unlocked = append(unlocked, d)
			}
		}
		sort.Strings(unlocked)
		ready = append(ready, unlocked...)
	}
	if len(out) != len(g.units) {
		return nil, ErrCycle
	}
	return out, nil
}

// Path returns the unique unit chain from the first source to the first
// sink for linear graphs, which is the common shape of the paper's apps
// (source → detect → recognize → sink). It errors if any unit on the walk
// has more than one downstream.
func (g *Graph) Path() ([]string, error) {
	srcs := g.Sources()
	if len(srcs) == 0 {
		return nil, ErrNoSource
	}
	id := srcs[0]
	path := []string{id}
	for g.units[id].Role != RoleSink {
		ds := g.downstream[id]
		if len(ds) == 0 {
			return nil, fmt.Errorf("%w: %q", ErrDeadEnd, id)
		}
		if len(ds) > 1 {
			return nil, fmt.Errorf("graph: unit %q fans out to %d units; graph is not linear", id, len(ds))
		}
		id = ds[0]
		if len(path) > len(g.units) {
			return nil, ErrCycle
		}
		path = append(path, id)
	}
	return path, nil
}
