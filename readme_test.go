package searchads_test

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"searchads"
)

// flagDecl matches a flag declaration in a command's sources, e.g.
// flag.String("faults", ...) or fs.BoolVar(&c.quick, "quick", ...).
var flagDecl = regexp.MustCompile(`\b(?:flag|fs)\.(?:Bool|Int|Int64|Uint|String|Float64|Duration)(?:Var)?\((?:&[\w.]+,\s*)?"([a-z][a-z0-9-]*)"`)

// commandFlags maps each command under cmd/ to the flags it declares.
func commandFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	files, err := filepath.Glob("cmd/*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]map[string]bool)
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		cmd := filepath.Base(filepath.Dir(f))
		if out[cmd] == nil {
			out[cmd] = make(map[string]bool)
		}
		for _, m := range flagDecl.FindAllSubmatch(data, -1) {
			out[cmd][string(m[1])] = true
		}
	}
	return out
}

// TestReadmeNamesRealFlagsAndProfiles keeps the README honest: a flag
// on a `go run ./cmd/NAME` line must be declared by cmd/NAME, a flag
// quoted inline (`-flag ...`) by some command, and every fault profile,
// adversary posture and countermeasure bundle the README passes to
// -faults, -adversary or -countermeasures (inline as a|b|c, or on a
// command line) must exist.
func TestReadmeNamesRealFlagsAndProfiles(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := strings.ReplaceAll(string(data), "\\\n", " ") // join continued command lines
	flags := commandFlags(t)
	names := map[string][]string{
		"faults":          searchads.FaultProfiles(),
		"adversary":       searchads.AdversaryPostures(),
		"countermeasures": searchads.CountermeasureBundles(),
	}
	checkValues := func(flag string, values []string) {
		valid, ok := names[flag]
		if !ok {
			return
		}
		for _, v := range values {
			if !slices.Contains(valid, v) {
				t.Errorf("README passes -%s %q; valid: %s", flag, v, strings.Join(valid, ", "))
			}
		}
	}

	runLine := regexp.MustCompile(`go run \./cmd/([a-z]+)([^\n#]*)`)
	for _, m := range runLine.FindAllStringSubmatch(readme, -1) {
		cmd, args := m[1], strings.Fields(m[2])
		if flags[cmd] == nil {
			t.Errorf("README runs ./cmd/%s, which does not exist", cmd)
			continue
		}
		for i, a := range args {
			if !strings.HasPrefix(a, "-") {
				continue
			}
			name := strings.TrimLeft(a, "-")
			if !flags[cmd][name] {
				t.Errorf("README passes -%s to cmd/%s, which declares no such flag", name, cmd)
			}
			if i+1 < len(args) {
				checkValues(name, args[i+1:i+2])
			}
		}
	}

	inline := regexp.MustCompile("`-([a-z][a-z0-9-]*)(?: ([^`]*))?`")
	for _, m := range inline.FindAllStringSubmatch(readme, -1) {
		name := m[1]
		declared := false
		for _, fs := range flags {
			declared = declared || fs[name]
		}
		if !declared {
			t.Errorf("README quotes -%s, which no command declares", name)
		}
		if m[2] != "" {
			checkValues(name, strings.Split(m[2], "|"))
		}
	}
}
