package sesa

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"sesa/internal/checker"
	"sesa/internal/config"
	"sesa/internal/litmus"
	"sesa/internal/runner"
	"sesa/internal/stats"
	"sesa/internal/trace"
)

var updatePolicyEquiv = flag.Bool("update-policy-equiv", false, "rewrite testdata/policy_equiv.golden.json from the current simulator")

// legacyModels is the paper's five machines, spelled as constants rather
// than config.AllModels(): the golden below pins these five regardless of
// how many machines the registry grows, so a policy-extraction refactor is
// checked old-vs-new while new machines land alongside.
func legacyModels() []config.Model {
	return []config.Model{
		config.X86, config.NoSpec370, config.SLFSpec370,
		config.SLFSoS370, config.SLFSoSKey370,
	}
}

// policyLitmusCell pins one (test, model) outcome histogram from the timing
// simulator's witness search. Any change to issue, forwarding, gating,
// snooping or squash decisions perturbs which outcomes appear and how often.
type policyLitmusCell struct {
	Test     string
	Model    string
	Outcomes map[checker.Outcome]int
}

// policySweepCell pins one (profile, model) characterization sweep cell:
// complete machine statistics plus the Table IV derivation.
type policySweepCell struct {
	Job   string
	Stats *stats.Machine
	Char  stats.Characterization
}

type policyEquivGolden struct {
	Litmus []policyLitmusCell
	Sweep  []policySweepCell
}

const policyLitmusIters = 48

func policyEquivSnapshot(t *testing.T) []byte {
	t.Helper()
	var g policyEquivGolden
	for _, lt := range litmus.Tests() {
		for _, m := range legacyModels() {
			res, err := litmus.Run(lt, m, policyLitmusIters, 7)
			if err != nil {
				t.Fatalf("litmus %s on %s: %v", lt.Name, m, err)
			}
			g.Litmus = append(g.Litmus, policyLitmusCell{
				Test: lt.Name, Model: m.String(), Outcomes: res.Outcomes,
			})
		}
	}

	var jobs []runner.Job
	for _, p := range []struct {
		name string
		n    int
	}{{"505.mcf", 2000}, {"x264", 1500}} {
		prof, ok := trace.Lookup(p.name)
		if !ok {
			t.Fatalf("unknown profile %q", p.name)
		}
		for _, m := range legacyModels() {
			jobs = append(jobs, runner.Job{
				Profile:     prof,
				Model:       m,
				InstPerCore: p.n,
				Seed:        42,
				StepMode:    config.StepNaive,
			})
		}
	}
	results, _ := runner.Pool{Workers: 1}.Run(jobs)
	for i := range results {
		r := &results[i]
		if r.Err != nil {
			t.Fatalf("job %s failed: %v", r.Job.Name(), r.Err)
		}
		g.Sweep = append(g.Sweep, policySweepCell{Job: r.Job.Name(), Stats: r.Stats, Char: r.Char})
	}

	b, err := json.MarshalIndent(&g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestPolicyEquivalence pins the five paper machines across the consistency
// policy extraction: litmus outcome histograms over the full suite and two
// characterization sweeps must be byte-identical to the golden generated
// before the core's per-model switches were replaced, first by a policy
// interface and now by branches on the machine's registry row. Runs under
// -race in CI. Regenerate with:
//
//	go test -run TestPolicyEquivalence -update-policy-equiv .
func TestPolicyEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second litmus + characterization sweep")
	}
	got := policyEquivSnapshot(t)

	golden := filepath.Join("testdata", "policy_equiv.golden.json")
	if *updatePolicyEquiv {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-policy-equiv)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("legacy-model behavior diverged from pre-refactor golden (regenerate with -update-policy-equiv only if the change is intentional)")
	}
}

// TestLitmusRosterAgainstChecker runs the full litmus suite on every
// registered machine and requires each witnessed outcome to be allowed by
// the machine's bounding operational model. For the five paper machines
// this re-checks the paper's Table; for machines added through the policy
// registry (Louvre, RCP) it is the primary consistency proof obligation.
func TestLitmusRosterAgainstChecker(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second litmus sweep")
	}
	for _, lt := range litmus.Tests() {
		for _, m := range config.AllModels() {
			res, err := litmus.Run(lt, m, 40, 11)
			if err != nil {
				t.Fatalf("litmus %s on %s: %v", lt.Name, m, err)
			}
			allowed := lt.Allowed(litmus.CheckerModelFor(m))
			for o, n := range res.Outcomes {
				if n > 0 && !allowed.Contains(o) {
					t.Errorf("%s on %s: witnessed %q (%d times), not allowed by %v",
						lt.Name, m, o, n, litmus.CheckerModelFor(m))
				}
			}
		}
	}
}
