package searchads_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"searchads"
)

// killAt returns a config whose Sink cancels ctx after n live
// iterations — the deterministic abort hook behind the kill-point
// chaos harness. The iteration that trips the hook is still recorded;
// the crawl aborts at the next iteration boundary, exactly like a
// SIGINT between iterations.
func killAt(cfg searchads.Config, n int, cancel context.CancelFunc) searchads.Config {
	count := 0
	cfg.Sink = func(*searchads.Iteration) {
		if count++; count == n {
			cancel()
		}
	}
	return cfg
}

// runToCompletion drives kill → resume cycles until one run finishes,
// re-rolling the kill point and parallelism each round, and returns the
// finishing study (its dataset and report caches populated).
func runToCompletion(t *testing.T, base searchads.Config, gen *rand.Rand) (*searchads.Study, int) {
	t.Helper()
	kills := 0
	for round := 0; ; round++ {
		if round > 50 {
			t.Fatal("kill/resume loop does not converge")
		}
		cfg := base
		cfg.Parallel = gen.Intn(2) == 1
		ctx, cancel := context.WithCancel(context.Background())
		cfg = killAt(cfg, 1+gen.Intn(8), cancel)
		st := searchads.NewStudy(cfg)
		_, err := st.Resume(ctx)
		cancel()
		if err == nil {
			return st, kills
		}
		if !errors.Is(err, searchads.ErrCanceled) {
			t.Fatalf("round %d: %v", round, err)
		}
		kills++
		if _, err := os.Stat(base.Checkpoint); err != nil {
			t.Fatalf("round %d: killed run left no checkpoint: %v", round, err)
		}
	}
}

// TestResumeCorruptCheckpoint pins the damage contract: a damaged file
// surfaces ErrCheckpointCorrupt — never a resumed crawl over damaged
// state — and deleting it restarts cleanly to the correct bytes.
func TestResumeCorruptCheckpoint(t *testing.T) {
	base := searchads.Config{Seed: 9, Engines: []string{searchads.Bing}, QueriesPerEngine: 5}
	want, err := searchads.NewStudy(base).Crawl(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	cfg := base
	cfg.Checkpoint = filepath.Join(t.TempDir(), "run.ckpt")

	// A killed run leaves a valid checkpoint; truncate it mid-payload.
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := searchads.NewStudy(killAt(cfg, 2, cancel)).Resume(ctx); !errors.Is(err, searchads.ErrCanceled) {
		t.Fatalf("kill run: %v", err)
	}
	cancel()
	data, err := os.ReadFile(cfg.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{
		"truncated": data[:len(data)-9],
		"garbage":   []byte("not a checkpoint at all"),
		"bitflip":   append(append([]byte{}, data[:len(data)-5]...), data[len(data)-5]^0x10, data[len(data)-4], data[len(data)-3], data[len(data)-2], data[len(data)-1]),
	} {
		if err := os.WriteFile(cfg.Checkpoint, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := searchads.NewStudy(cfg).Resume(context.Background())
		if !errors.Is(err, searchads.ErrCheckpointCorrupt) {
			t.Fatalf("%s checkpoint: got %v, want ErrCheckpointCorrupt", name, err)
		}
	}

	// Clean restart: remove the damaged file, resume fresh, compare.
	if err := os.Remove(cfg.Checkpoint); err != nil {
		t.Fatal(err)
	}
	got, err := searchads.NewStudy(cfg).Resume(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, got), saveBytes(t, want)) {
		t.Fatal("clean restart after corruption diverges from the plain run")
	}
}

// TestResumeMismatchedCheckpoint pins the identity contract: a
// checkpoint from a different configuration refuses to resume, while a
// parallelism change — which cannot affect output bytes — is accepted.
func TestResumeMismatchedCheckpoint(t *testing.T) {
	cfg := searchads.Config{
		Seed:             4,
		Engines:          []string{searchads.Bing, searchads.DuckDuckGo},
		QueriesPerEngine: 5,
		Checkpoint:       filepath.Join(t.TempDir(), "run.ckpt"),
	}
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := searchads.NewStudy(killAt(cfg, 3, cancel)).Resume(ctx); !errors.Is(err, searchads.ErrCanceled) {
		t.Fatalf("kill run: %v", err)
	}
	cancel()

	other := cfg
	other.Seed = 5
	if _, err := searchads.NewStudy(other).Resume(context.Background()); !errors.Is(err, searchads.ErrCheckpointMismatch) {
		t.Fatalf("seed change: got %v, want ErrCheckpointMismatch", err)
	}
	other = cfg
	other.Storage = searchads.PartitionedStorage
	if _, err := searchads.NewStudy(other).Resume(context.Background()); !errors.Is(err, searchads.ErrCheckpointMismatch) {
		t.Fatalf("storage change: got %v, want ErrCheckpointMismatch", err)
	}

	flipped := cfg
	flipped.Parallel = true
	if _, err := searchads.NewStudy(flipped).Resume(context.Background()); err != nil {
		t.Fatalf("parallelism change refused: %v", err)
	}
}

// TestResumeFutureVersionCheckpoint: a checkpoint whose header claims
// a format revision this release does not read is refused with
// ErrCheckpointVersion, matchable through the facade.
func TestResumeFutureVersionCheckpoint(t *testing.T) {
	cfg := searchads.Config{
		Seed:             6,
		Engines:          []string{searchads.Bing},
		QueriesPerEngine: 4,
		Checkpoint:       filepath.Join(t.TempDir(), "run.ckpt"),
	}
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := searchads.NewStudy(killAt(cfg, 2, cancel)).Resume(ctx); !errors.Is(err, searchads.ErrCanceled) {
		t.Fatalf("kill run: %v", err)
	}
	cancel()
	data, err := os.ReadFile(cfg.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	// Header bytes 4:8 hold the little-endian format version.
	binary.LittleEndian.PutUint32(data[4:8], binary.LittleEndian.Uint32(data[4:8])+1)
	if err := os.WriteFile(cfg.Checkpoint, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := searchads.NewStudy(cfg).Resume(context.Background()); !errors.Is(err, searchads.ErrCheckpointVersion) {
		t.Fatalf("future-version checkpoint: got %v, want ErrCheckpointVersion", err)
	}
}

// TestResumeRequiresCheckpoint pins the API contract.
func TestResumeRequiresCheckpoint(t *testing.T) {
	_, err := searchads.NewStudy(searchads.Config{Seed: 1}).Resume(context.Background())
	if err == nil {
		t.Fatal("Resume without Config.Checkpoint accepted")
	}
}
