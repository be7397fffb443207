package experiments

import (
	"os"
	"reflect"
	"testing"
)

// TestInterferenceWarmStartIdentical proves the CacheDir path end to end
// for every runner that warm-starts (Figures 9/10 at formed+30s, Figure
// 11 at formed+60s): a campaign that forms its networks and populates the
// snapshot cache, a campaign that restores from it, and a campaign that
// never touches a cache all produce exactly the same figure series.
func TestInterferenceWarmStartIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three campaigns per runner")
	}
	runners := []struct {
		name    string
		entries int // one cache entry per (protocol, seed)
		run     func(cacheDir string) (any, error)
	}{
		{"RunInterference", 2, func(cacheDir string) (any, error) {
			opts := DefaultInterferenceOptions("A")
			opts.FlowSets = 2
			opts.Seed = 1
			opts.Parallel = 1
			opts.CacheDir = cacheDir
			return RunInterference(opts)
		}},
		{"RunFig11", 4, func(cacheDir string) (any, error) {
			opts := DefaultFailureOptions()
			opts.Victims = 1
			opts.Repetitions = 2
			opts.Parallel = 1
			opts.CacheDir = cacheDir
			digs, orch, err := RunFig11(opts)
			if err != nil {
				return nil, err
			}
			return [2]FailureResult{*digs, *orch}, nil
		}},
	}
	for _, r := range runners {
		t.Run(r.name, func(t *testing.T) {
			dir := t.TempDir()
			run := func(cacheDir string) any {
				res, err := r.run(cacheDir)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			cold := run(dir)
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != r.entries {
				t.Fatalf("cold campaign left %d cache entries, want %d", len(entries), r.entries)
			}
			warm := run(dir)
			uncached := run("")
			if !reflect.DeepEqual(cold, warm) {
				t.Errorf("warm-started campaign diverges from the one that populated the cache:\n cold=%+v\n warm=%+v", cold, warm)
			}
			if !reflect.DeepEqual(cold, uncached) {
				t.Errorf("cached campaign diverges from the uncached one:\n cached=%+v\n uncached=%+v", cold, uncached)
			}
		})
	}
}
