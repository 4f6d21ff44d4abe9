package searchads_test

import (
	"os"
	"path/filepath"
	"reflect"
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

// lineFlag is one flag on a README command line: its name and the
// value it may take, which is the text after '=' in -name=value form
// and otherwise the next argument (nil when the flag is last).
type lineFlag struct {
	name   string
	values []string
}

// commandLineFlags walks a command line's arguments for flags. A lone
// "-" is a value (stdin or stdout), never a flag; -name=value names
// the flag "name".
func commandLineFlags(args []string) []lineFlag {
	var out []lineFlag
	for i, a := range args {
		if a == "-" || !strings.HasPrefix(a, "-") {
			continue
		}
		name := strings.TrimLeft(a, "-")
		if k := strings.IndexByte(name, '='); k >= 0 {
			out = append(out, lineFlag{name[:k], []string{name[k+1:]}})
			continue
		}
		f := lineFlag{name: name}
		if i+1 < len(args) {
			f.values = args[i+1 : i+2]
		}
		out = append(out, f)
	}
	return out
}

func TestCommandLineFlags(t *testing.T) {
	for _, tc := range []struct {
		line string
		want []lineFlag
	}{
		{"", nil},
		{"-quick", []lineFlag{{"quick", nil}}},
		{"-seeds 4 -telemetry", []lineFlag{{"seeds", []string{"4"}}, {"telemetry", nil}}},
		{"-out - -quiet", []lineFlag{{"out", []string{"-"}}, {"quiet", nil}}},
		{"-faults=bot-hostile -x", []lineFlag{{"faults", []string{"bot-hostile"}}, {"x", nil}}},
		{"--adversary strict", []lineFlag{{"adversary", []string{"strict"}}}},
		{"-type script a.js -", []lineFlag{{"type", []string{"script"}}}},
		{"-faults=", []lineFlag{{"faults", []string{""}}}},
	} {
		got := commandLineFlags(strings.Fields(tc.line))
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("commandLineFlags(%q) = %v, want %v", tc.line, got, tc.want)
		}
	}
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
		for _, f := range commandLineFlags(args) {
			if !flags[cmd][f.name] {
				t.Errorf("README passes -%s to cmd/%s, which declares no such flag", f.name, cmd)
			}
			checkValues(f.name, f.values)
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
