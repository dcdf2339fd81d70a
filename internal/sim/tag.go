package sim

import (
	"sync"
	"sync/atomic"
)

// Tag is an interned component handle for scheduler attribution.
// Components intern their name once at package init with TagFor and
// schedule through the *Tag variants; attribution then costs a single
// array increment per executed event, and the tag fits in the timer
// slot's padding instead of adding the two machine words of a string.
type Tag uint8

// maxTags bounds the interning table; Tag 0 is reserved for untagged.
const maxTags = 256

// The interned-name table is read-mostly: TagFor runs at package init,
// while Name and EventCounts run on every telemetry export — including
// concurrently from parallel sweep workers. Readers therefore take an
// atomic pointer load, never a lock; writers copy the slice, append,
// and publish (copy-on-write), serialized by tagWriteMu.
var (
	tagWriteMu sync.Mutex
	tagNames   atomic.Pointer[[]string]
)

func init() {
	initial := []string{""} // index = Tag; 0 = untagged
	tagNames.Store(&initial)
}

// TagFor interns a component name, returning its Tag. Interning the
// same name twice returns the same Tag. Intended for package-level
// variable initialisation, not per-event calls.
func TagFor(name string) Tag {
	if name == "" {
		return 0
	}
	tagWriteMu.Lock()
	defer tagWriteMu.Unlock()
	names := *tagNames.Load()
	for i, n := range names {
		if n == name {
			return Tag(i)
		}
	}
	if len(names) == maxTags {
		panic("sim: too many distinct scheduler tags")
	}
	updated := make([]string, len(names)+1)
	copy(updated, names)
	updated[len(names)] = name
	tagNames.Store(&updated)
	return Tag(len(updated) - 1)
}

// Name returns the component name the tag was interned under. It is
// lock-free and safe to call from any goroutine.
func (t Tag) Name() string {
	names := *tagNames.Load()
	if int(t) < len(names) {
		return names[t]
	}
	return ""
}

// tagTable returns an immutable snapshot of the interned names.
func tagTable() []string {
	return *tagNames.Load()
}
