package breakband

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryPackageHasDoc is the documentation-presence gate (CI runs it as
// part of the suite): every package under internal/ and cmd/ must carry a
// package comment on at least one of its non-test files, so the layer map
// in ARCHITECTURE.md always has a per-package entry point behind it. A
// useful comment is more than a name — require a sentence, not a stub.
func TestEveryPackageHasDoc(t *testing.T) {
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			checkPackageDoc(t, path)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// The facade package itself is held to the same bar.
	checkPackageDoc(t, ".")
}

// TestEveryInternalPackageIsImported is the dead-package gate: every
// package under internal/ must be imported by non-test code of this module
// from outside its own directory. A package only its own tests (or other
// tests) reach is a second implementation no run exercises, and every
// change to the layers below it has to carry it anyway.
func TestEveryInternalPackageIsImported(t *testing.T) {
	exempt := map[string]bool{
		"internal/simtest": true, // test support by design: only _test.go files import it
		"internal/core":    true, // a doc-only umbrella package over model, breakdown and whatif
	}
	importers := map[string]bool{} // import path -> imported from another directory
	packages := map[string]bool{}  // dir -> has non-test Go files
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != "." && err == nil {
				return filepath.SkipDir // a nested module is not this module
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		packages[dir] = true
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if p != "breakband/"+dir {
				importers[p] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir := range packages {
		if !strings.HasPrefix(dir, "internal/") || exempt[dir] {
			continue
		}
		if !importers["breakband/"+dir] {
			t.Errorf("package %s is imported by no non-test code outside it; delete it or give it a caller", dir)
		}
	}
}

// checkPackageDoc fails the test if dir contains Go files but no package
// comment (or only a trivial one).
func checkPackageDoc(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var goFiles []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		goFiles = append(goFiles, filepath.Join(dir, name))
	}
	if len(goFiles) == 0 {
		return // not a package directory
	}
	fset := token.NewFileSet()
	best := 0
	for _, file := range goFiles {
		f, err := parser.ParseFile(fset, file, nil, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Errorf("%s: %v", file, err)
			continue
		}
		if f.Doc != nil && len(f.Doc.Text()) > best {
			best = len(f.Doc.Text())
		}
	}
	const minDocLen = 60 // a real sentence, not a restated package name
	if best == 0 {
		t.Errorf("package %s has no package comment; document it (see ARCHITECTURE.md for the expected altitude)", dir)
	} else if best < minDocLen {
		t.Errorf("package %s has only a %d-byte package comment; say what the package is for", dir, best)
	}
}
