package opt

import (
	"errors"
	"fmt"
	"sort"

	"mgsilt/internal/litho"
)

// The registry is the single seam through which every layer picks a
// tile solver: the shard wire protocol (SolveRequest.Solver), the
// service JobSpec, internal/bench and the cmd tools all resolve a name
// once with New and hand the instance to the flows as core.Config.Solver;
// validation and flag help derive from Names. Adding a solver is one
// file plus one line in the registry map below — no switch statements
// to chase across packages.

// DefaultSolver is the registry name resolved when a selection site
// leaves the solver unspecified (empty string). It matches the nil
// core.Config.Solver fallback.
const DefaultSolver = "pixel"

// ErrUnknownSolver is the sentinel wrapped by New for names that no
// backend registered. Selection sites surface it with errors.Is.
var ErrUnknownSolver = errors.New("opt: unknown solver")

// registry maps each solver name to its constructor. Instances are not
// shared: each New call returns a new value.
var registry = map[string]func(sim *litho.Simulator) Solver{
	"levelset":   func(sim *litho.Simulator) Solver { return NewLevelSet(sim) },
	"multilevel": func(sim *litho.Simulator) Solver { return NewMultiLevel(sim) },
	"pixel":      func(sim *litho.Simulator) Solver { return NewPixel(sim) },
}

// New resolves name to a freshly constructed solver. Unknown names
// return an error wrapping ErrUnknownSolver that lists the registered
// names, so flag- and RPC-level messages stay self-describing.
func New(name string, sim *litho.Simulator) (Solver, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("%w %q (registered: %v)", ErrUnknownSolver, name, Names())
	}
	return f(sim), nil
}

// Known reports whether name is a registered solver.
func Known(name string) bool {
	_, ok := registry[name]
	return ok
}

// Names returns the registered solver names in sorted order — the
// canonical list behind flag help, wire validation, and the CI solver
// matrix.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
