package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// digestsPath is the pinned-digest file, relative to the repository root the
// benchmark runs from.
const digestsPath = "bench/testdata/digests.json"

// pin records one workload's deterministic results at one seed: a sha256 per
// job and a roll-up over the whole pass.
type pin struct {
	Params string            `json:"params"`
	Rollup string            `json:"rollup"`
	Jobs   map[string]string `json:"jobs"`
}

// digestFile maps workload name, then seed, to its pin.
type digestFile map[string]map[string]*pin

func loadDigests(path string) (digestFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read pinned digests: %w", err)
	}
	var f digestFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return f, nil
}

func (f digestFile) save(path string) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// lookup returns the pin for (w, seed), nil when the seed is not pinned, or
// an error when the pin was recorded at other workload parameters.
func (f digestFile) lookup(w *workload, seed uint64) (*pin, error) {
	p := f[w.name][strconv.FormatUint(seed, 10)]
	if p == nil {
		return nil, nil
	}
	if p.Params != w.params() {
		return nil, fmt.Errorf("digests for %s seed %d were pinned at %q, the workload is now %q: rerun with -update",
			w.name, seed, p.Params, w.params())
	}
	return p, nil
}

// newPin records a pass's results.
func newPin(w *workload, p pass) (*pin, error) {
	pn := &pin{Params: w.params(), Rollup: rollup(p.ops), Jobs: make(map[string]string, len(p.ops))}
	for _, o := range p.ops {
		if o.err != nil {
			return nil, fmt.Errorf("%s: %s failed, refusing to pin it: %w", w.name, o.name, o.err)
		}
		pn.Jobs[o.name] = o.digest
	}
	return pn, nil
}

// rollup hashes a pass's job digests in job order.
func rollup(ops []opResult) string {
	h := sha256.New()
	for _, o := range ops {
		fmt.Fprintf(h, "%s %s\n", o.name, o.digest)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// verifier checks every job result a run produces. A job fails when it
// returns an error or fails its own check, when its result differs from the
// first time the run computed it (an earlier pass, or the untraced run for
// the traced replica), or when the seed is pinned and its digest differs from
// the pin. Failures count against attempted operations.
type verifier struct {
	pin       *pin
	first     map[string]string
	rollup    string
	attempted int
	failed    int
	errs      []string
}

func newVerifier(p *pin) *verifier {
	return &verifier{pin: p, first: make(map[string]string)}
}

func (v *verifier) pass(p pass) {
	for _, o := range p.ops {
		v.check(o)
	}
	if v.rollup == "" {
		v.rollup = rollup(p.ops)
		if v.pin != nil && v.rollup != v.pin.Rollup {
			v.fail(fmt.Sprintf("roll-up %.16s differs from pinned %.16s", v.rollup, v.pin.Rollup))
		}
	}
}

func (v *verifier) check(o opResult) {
	v.attempted++
	ref, seen := v.first[o.name]
	switch {
	case o.err != nil:
		v.fail(fmt.Sprintf("%s: %v", o.name, o.err))
	case seen && ref != o.digest:
		v.fail(fmt.Sprintf("%s: result %.16s differs from the run's first result %.16s", o.name, o.digest, ref))
	case v.pin != nil && v.pin.Jobs[o.name] != o.digest:
		v.fail(fmt.Sprintf("%s: digest %.16s differs from pinned %.16s", o.name, o.digest, v.pin.Jobs[o.name]))
	}
	if !seen {
		v.first[o.name] = o.digest
	}
}

func (v *verifier) fail(msg string) {
	v.failed++
	if len(v.errs) < 10 {
		v.errs = append(v.errs, msg)
	}
}

// status is the digest line printed with every run.
func (v *verifier) status() string {
	switch {
	case v.pin == nil:
		return "digest: unpinned"
	case v.failed > 0:
		return fmt.Sprintf("digest: FAILED, %d failures", v.failed)
	}
	return fmt.Sprintf("digest: ok %.16s", v.rollup)
}
