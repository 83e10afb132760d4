package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// goldenDir holds the repository's checked-in goldens, relative to the
// repository root the benchmark runs from.
const goldenDir = "testdata/golden"

// goldenParts names the golden file each checked sub-document must
// match byte for byte at the default seed.
var goldenParts = map[string]string{
	"fig67":  "fig67_quick.json",
	"table1": "table1_quick.json",
}

// pinnedSeeds is how many seeds, from 0, have their sub-document
// digests pinned in pinned_digests.json.
const pinnedSeeds = 100

// pinnedDigests holds, for each seed below pinnedSeeds, the sha256
// digest of every sub-document a workload produces: the Fig. 6/7 table,
// Table I, the Case Study I walks and the Fig. 8 pipeline (profile
// table, alone IPCs, every evaluation). At seed 0 the walks and Fig. 8
// equal lpm.CaseStudyI and lpm.Fig8 at quick scale (see
// TestDefaultSeedMatchesLibrary); `go test -run TestPinnedDigests
// -update` rewrites the file from the current library.
//
//go:embed pinned_digests.json
var pinnedDigests []byte

// partPrefix maps each sub-document to the op keys it covers, so a
// mismatch counts against exactly those operations.
var partPrefix = map[string]string{
	"fig67":      "profile/",
	"table1":     "table1/",
	"casestudy1": "walk/",
	"fig8":       "",
}

// refs is the verification data a run loads during setup.
type refs struct {
	golden map[string][]byte
	// pinned maps a seed to its sub-documents' digests, by part name.
	pinned map[uint64]map[string]string
}

// loadRefs reads every golden file and the pinned digests; the default
// seed compares against the goldens, other seeds only prove they are
// present.
func loadRefs() (*refs, error) {
	r := &refs{golden: map[string][]byte{}}
	for part, file := range goldenParts {
		b, err := os.ReadFile(filepath.Join(goldenDir, file))
		if err != nil {
			return nil, fmt.Errorf("load golden: %w", err)
		}
		if !json.Valid(b) {
			return nil, fmt.Errorf("load golden: %s is not JSON", file)
		}
		r.golden[part] = b
	}
	if err := json.Unmarshal(pinnedDigests, &r.pinned); err != nil {
		return nil, fmt.Errorf("load pinned digests: %w", err)
	}
	for seed := uint64(0); seed < pinnedSeeds; seed++ {
		if len(r.pinned[seed]) != len(partPrefix) {
			return nil, fmt.Errorf("load pinned digests: seed %d has %d parts, want %d", seed, len(r.pinned[seed]), len(partPrefix))
		}
	}
	return r, nil
}

// encode renders a document the way the golden tests write them:
// two-space indented JSON plus a trailing newline.
func encode(v any) []byte {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return []byte("marshal error: " + err.Error())
	}
	return append(b, '\n')
}

// digest is the sha256 of a document's encoding, in hex.
func digest(v any) string {
	sum := sha256.Sum256(encode(v))
	return hex.EncodeToString(sum[:])
}

// checker verifies passes of one workload at one seed. At a pinned seed
// each sub-document must hash to its pinned digest, and at the default
// seed also equal its golden file byte for byte; at every seed each pass
// must reproduce the first pass operation by operation.
type checker struct {
	refs  *refs
	seed  uint64
	first []op
	notes []string
}

// check returns how many of the pass's operations failed: errored,
// mismatched a golden or pinned digest, or differ from the first pass.
func (c *checker) check(p *pass) int {
	bad := make([]bool, len(p.ops))
	mark := func(i int, why string) {
		if !bad[i] {
			bad[i] = true
			c.note(fmt.Sprintf("%s: %s", p.ops[i].key, why))
		}
	}
	for i, o := range p.ops {
		if o.err != nil {
			mark(i, o.err.Error())
		}
	}
	pins := c.refs.pinned[c.seed]
	for _, part := range sortedKeys(p.parts) {
		why := ""
		if g, ok := c.refs.golden[part]; ok && c.seed == 0 && !bytes.Equal(encode(p.parts[part]), g) {
			why = "differs from golden " + goldenParts[part]
		}
		if d, ok := pins[part]; ok && digest(p.parts[part]) != d {
			why = fmt.Sprintf("differs from the pinned digest of %s at seed %d", part, c.seed)
		}
		if why == "" {
			continue
		}
		for i, o := range p.ops {
			if strings.HasPrefix(o.key, partPrefix[part]) {
				mark(i, why)
			}
		}
	}
	if c.first == nil {
		c.first = p.ops
	} else {
		for i, o := range p.ops {
			if i >= len(c.first) || c.first[i].key != o.key || c.first[i].val != o.val {
				mark(i, "differs from the run's first pass")
			}
		}
	}
	n := 0
	for _, b := range bad {
		if b {
			n++
		}
	}
	return n
}

// note keeps the first few failure descriptions for the report.
func (c *checker) note(s string) {
	if len(c.notes) < 8 {
		c.notes = append(c.notes, s)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
