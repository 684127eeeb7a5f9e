package opt

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"mgsilt/internal/litho"
)

// The registry is the single seam through which every layer picks a
// tile solver: the shard wire protocol (SolveRequest.Solver), the
// service JobSpec, internal/bench and the cmd tools all resolve a name
// once with New and hand the instance to the flows as core.Config.Solver;
// validation and flag help derive from Names. Backends self-register from an init() in their own file,
// so adding a solver is one file plus one Register call — no switch
// statements to chase across packages.

// DefaultSolver is the registry name resolved when a selection site
// leaves the solver unspecified (empty string). It matches the nil
// core.Config.Solver fallback.
const DefaultSolver = "pixel"

// ErrUnknownSolver is the sentinel wrapped by New for names that no
// backend registered. Selection sites surface it with errors.Is.
var ErrUnknownSolver = errors.New("opt: unknown solver")

// Factory builds a fresh solver instance with the backend's default
// tuning. Instances are not shared: each New call returns a new value,
// so callers may tweak exported fields without aliasing.
type Factory func(sim *litho.Simulator) Solver

var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
)

// Register adds a solver factory under name. It panics on an empty
// name, a nil factory, or a duplicate registration — all three are
// programmer errors caught at package init, never at solve time.
func Register(name string, f Factory) {
	if name == "" {
		panic("opt: Register with empty solver name")
	}
	if f == nil {
		panic(fmt.Sprintf("opt: Register(%q) with nil factory", name))
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("opt: duplicate solver registration %q", name))
	}
	registry[name] = f
}

// New resolves name to a freshly constructed solver. Unknown names
// return an error wrapping ErrUnknownSolver that lists the registered
// names, so flag- and RPC-level messages stay self-describing.
func New(name string, sim *litho.Simulator) (Solver, error) {
	registryMu.RLock()
	f, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w %q (registered: %v)", ErrUnknownSolver, name, Names())
	}
	return f(sim), nil
}

// Known reports whether name is a registered solver.
func Known(name string) bool {
	registryMu.RLock()
	defer registryMu.RUnlock()
	_, ok := registry[name]
	return ok
}

// Names returns the registered solver names in sorted order — the
// canonical list behind flag help, wire validation, and the CI solver
// matrix.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
