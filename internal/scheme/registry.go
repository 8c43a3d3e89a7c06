package scheme

import (
	"fmt"
	"strings"
)

// The table of built-in schemes (builtins, in adapters.go) fixes the
// order every listing reports — the campaign's iteration order, the
// builders' column order — so two runs of the same binary always
// process schemes identically.

// Names lists the built-in scheme names in table order.
func Names() []string {
	out := make([]string, len(builtins))
	for i, s := range builtins {
		out[i] = s.Name()
	}
	return out
}

// All lists the built-in schemes in table order.
func All() []Scheme { return append([]Scheme(nil), builtins...) }

// Resolve maps names to schemes, preserving the given order. An empty
// or nil list selects every built-in scheme in table order; an unknown
// name is an error naming the valid choices.
func Resolve(names []string) ([]Scheme, error) {
	if len(names) == 0 {
		return All(), nil
	}
	out := make([]Scheme, len(names))
next:
	for i, n := range names {
		for _, s := range builtins {
			if s.Name() == n {
				out[i] = s
				continue next
			}
		}
		return nil, fmt.Errorf("scheme: unknown scheme %q (known: %s)", n, strings.Join(Names(), ", "))
	}
	return out, nil
}

// ParseList splits a -schemes flag value ("mfact,packet") into names,
// trimming whitespace and dropping empties. An empty value yields nil,
// which Resolve treats as "all built-in schemes".
func ParseList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
