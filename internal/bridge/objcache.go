package bridge

import (
	"crypto/sha256"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/switchware/activebridge/internal/vm"
)

// Process-wide compiled-switchlet object cache. Installing the same
// switchlet on N bridges — 256 learning bridges in the fat-tree
// scenarios — compiles it exactly once; every further install reuses the
// encoded object and its import list. Safe under concurrent scenario
// runs and shard goroutines.
//
// The key pins everything compilation depends on: the module name, the
// manifest version, the source hash, the optimization level, and a
// fingerprint of the signature environment the source compiles against
// (the visible module set plus the implicit open). Distinct sources
// under one name — the buggy
// 802.1D variant, instrumented spanning trees — hash to distinct
// entries; identical installs on identically-provisioned nodes hit.
type objectCacheKey struct {
	name    string
	version string
	srcSum  [32]byte
	env     string
	// optLevel separates entries per compiler tier: a level-1 entry's obj
	// is quickened, a level-0 entry's is naive bytecode, and the two must
	// never be shared — a bridge running -O0 linking a quickened object
	// would silently reintroduce the optimizer it asked to disable.
	optLevel int
}

type objectCacheEntry struct {
	name    string
	enc     []byte
	imports []string
	// obj is the compiler's object, verified (CompileLevel refuses to
	// return anything else) and, at level 1, already quickened. Installing
	// links this shared object directly, skipping the encode/decode round
	// trip and a second verification. Object and its chunks are immutable
	// after optimization; per-bridge state (globals, inline caches) lives
	// in each LinkedModule.
	obj *vm.Object
}

var (
	objectCache              sync.Map // objectCacheKey -> *objectCacheEntry
	objectHits, objectMisses atomic.Uint64
)

// envFingerprint digests the compilation environment: which module
// signatures are visible and what the implicit open is.
func envFingerprint(se *vm.SigEnv) string {
	mods := se.Modules()
	sort.Strings(mods)
	return se.Implicit + "|" + strings.Join(mods, ",")
}

// CompileCacheStats reports cumulative process-wide cache hits and
// misses (for tests and capacity diagnostics).
func CompileCacheStats() (hits, misses uint64) {
	return objectHits.Load(), objectMisses.Load()
}

// compileCached compiles name/source at optLevel against the signature
// environment, reusing a previous identical compilation when available.
// The returned entry is shared: callers must treat enc and imports as
// immutable.
func compileCached(name, source, version string, se *vm.SigEnv, optLevel int) (*objectCacheEntry, error) {
	key := objectCacheKey{name: name, version: version, srcSum: sha256.Sum256([]byte(source)), env: envFingerprint(se), optLevel: optLevel}
	if v, ok := objectCache.Load(key); ok {
		objectHits.Add(1)
		return v.(*objectCacheEntry), nil
	}
	obj, _, err := vm.CompileLevel(name, source, se, optLevel)
	if err != nil {
		return nil, err
	}
	imports := make([]string, 0, len(obj.Imports))
	for _, ref := range obj.Imports {
		imports = append(imports, ref.Module)
	}
	ent := &objectCacheEntry{name: name, enc: obj.Encode(), imports: imports, obj: obj}
	objectMisses.Add(1)
	actual, _ := objectCache.LoadOrStore(key, ent)
	return actual.(*objectCacheEntry), nil
}
