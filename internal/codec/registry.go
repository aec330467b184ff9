package codec

import (
	"fmt"
	"sort"
	"sync"
)

var (
	regMu    sync.RWMutex
	regName  = map[string]Codec{}
	regID    = map[uint8]Codec{}
	regOrder []string
)

// Register adds c to the process-wide registry. It panics on a duplicate
// name or ID — registration is an init-time, programmer-error concern.
func Register(c Codec) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := regName[c.Name()]; dup {
		panic(fmt.Sprintf("codec: duplicate registration of %q", c.Name()))
	}
	if _, dup := regID[c.ID()]; dup {
		panic(fmt.Sprintf("codec: duplicate codec ID %d (%q)", c.ID(), c.Name()))
	}
	regName[c.Name()] = c
	regID[c.ID()] = c
	regOrder = append(regOrder, c.Name())
}

// Lookup returns the codec registered under name.
func Lookup(name string) (Codec, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	c, ok := regName[name]
	if !ok {
		return nil, fmt.Errorf("codec: unknown codec %q (have %v)", name, namesLocked())
	}
	return c, nil
}

// LookupID returns the codec with the on-disk identifier id.
func LookupID(id uint8) (Codec, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	c, ok := regID[id]
	if !ok {
		return nil, fmt.Errorf("codec: unknown codec ID %d", id)
	}
	return c, nil
}

// MustLookup is Lookup for statically known names; it panics on a miss.
func MustLookup(name string) Codec {
	c, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return c
}

// Names lists the registered codec names in sorted order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	out := make([]string, 0, len(regName))
	for n := range regName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// All returns the registered codecs in registration order (the paper's
// comparison order for the baselines — sz3, sperr, zfp, mgard — then stz,
// whose package initialises after this one).
func All() []Codec {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Codec, 0, len(regOrder))
	for _, n := range regOrder {
		out = append(out, regName[n])
	}
	return out
}
