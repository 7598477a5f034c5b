package api

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strconv"
	"strings"
	"testing"
)

// codeConstants parses the package source and returns every Code*
// string constant (name → wire value). Source-level enumeration is the
// only way to catch a constant added without a CodeStatuses entry —
// the runtime map cannot know what it is missing.
func codeConstants(t *testing.T) map[string]string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.CONST {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						if !strings.HasPrefix(name.Name, "Code") || i >= len(vs.Values) {
							continue
						}
						lit, ok := vs.Values[i].(*ast.BasicLit)
						if !ok || lit.Kind != token.STRING {
							continue
						}
						val, err := strconv.Unquote(lit.Value)
						if err != nil {
							t.Fatalf("%s: %v", name.Name, err)
						}
						out[name.Name] = val
					}
				}
			}
		}
	}
	return out
}

// TestCodeStatusesCoversEveryCode pins the declaration-level contract
// the errcode analyzer enforces at call sites: every Code* constant
// has a CodeStatuses entry with at least one plausible HTTP status,
// the map holds nothing else, and no two constants share a wire value.
func TestCodeStatusesCoversEveryCode(t *testing.T) {
	consts := codeConstants(t)
	if len(consts) == 0 {
		t.Fatal("no Code* constants found in package source")
	}
	byValue := make(map[string]string)
	for name, val := range consts {
		if prev, dup := byValue[val]; dup {
			t.Errorf("%s and %s share the wire value %q", prev, name, val)
		}
		byValue[val] = name
		statuses, ok := CodeStatuses[val]
		if !ok {
			t.Errorf("%s (%q) has no CodeStatuses entry", name, val)
			continue
		}
		if len(statuses) == 0 {
			t.Errorf("%s (%q) declares no statuses", name, val)
		}
		for _, s := range statuses {
			if s < 100 || s > 599 {
				t.Errorf("%s (%q) declares impossible HTTP status %d", name, val, s)
			}
		}
	}
	for val := range CodeStatuses {
		if _, ok := byValue[val]; !ok {
			t.Errorf("CodeStatuses entry %q matches no Code* constant", val)
		}
	}
}

// TestEndpoint pins the route → label map both tiers share: every
// route has its label, and any other path — a scan, an unknown op, a
// near miss — collapses onto "other", so labels stay bounded.
func TestEndpoint(t *testing.T) {
	want := map[string]string{
		"/healthz":            "healthz",
		"/metrics":            "metrics",
		"/debug/obs":          "debug",
		"/debug/traces":       "debug",
		"/debug/pprof/heap":   "debug",
		BatchPath:             "batch",
		"/v1/datasets":        "datasets",
		DatasetPath("fleet"):  "admin",
		PointPath("fleet", 7): "admin",
		"/v1/nonzero/extra":   "other",
		"/v1/unknown":         "other",
		"/v1/":                "other",
		"/wp-admin.php":       "other",
		"/debug/tracesX":      "other",
	}
	for _, op := range Ops {
		want[QueryPath(op)] = op
	}
	for path, label := range want {
		if got := Endpoint(path); got != label {
			t.Errorf("Endpoint(%q) = %q, want %q", path, got, label)
		}
	}
}
