// Package specs embeds the paper's study, paper-235.yaml, so that a
// campaign run without -spec starts from the same spec as one run with
// -spec specs/paper-235.yaml, and shares its hash.
package specs

import (
	_ "embed"

	"hpctradeoff/internal/spec"
)

//go:embed paper-235.yaml
var paper235 []byte

// Load parses the campaign spec at path, or the embedded paper-235
// study when path is empty.
func Load(path string) (*spec.Spec, error) {
	if path == "" {
		return spec.Parse(paper235)
	}
	return spec.Load(path)
}
