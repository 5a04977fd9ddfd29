package orchestra

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIWorkflowParses keeps .github/workflows/ci.yml loadable and its
// steps pointed at code that exists. In YAML a ": " inside a plain
// (unquoted) scalar starts a nested mapping, so one step name holding it
// makes the whole file fail to parse, and then no CI step runs at all. The
// standard library has no YAML parser; a line rule over the name: values
// is enough to catch it. A run: command that names a ./… package directory
// the tree no longer has fails only once CI runs it, so every such path
// (relative to a -C directory when the command names one) must exist. A
// -run, -bench or -fuzz pattern that matches no function runs nothing and
// passes, so each of its | alternatives (the part before a /, which names
// the top-level function) must match a Test, Benchmark or Fuzz function
// declared in a package the command lists — also behind leading VAR=value
// environment assignments, and in the -run=pattern form.
func TestCIWorkflowParses(t *testing.T) {
	src, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	nameLine := regexp.MustCompile(`^\s*(?:- )?name:\s+(.*)$`)
	names := 0
	for n, line := range strings.Split(string(src), "\n") {
		m := nameLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		names++
		v := m[1]
		if strings.HasPrefix(v, `"`) || strings.HasPrefix(v, `'`) {
			continue
		}
		if strings.Contains(v, ": ") || strings.HasSuffix(v, ":") {
			t.Errorf("ci.yml:%d: the name %q holds an unquoted \": \"; quote it", n+1, v)
		}
	}
	if names == 0 {
		t.Error("ci.yml has no name: lines; the rule checks nothing")
	}

	envAssign := regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*=`)
	paths, patterns := 0, 0
	for _, run := range runCommands(string(src)) {
		for _, fields := range shellCommands(run.text) {
			for len(fields) > 0 && envAssign.MatchString(fields[0]) {
				fields = fields[1:]
			}
			var split []string // -flag=value as -flag value
			for _, f := range fields {
				if name, value, ok := strings.Cut(f, "="); ok && strings.HasPrefix(f, "-") {
					split = append(split, name, value)
				} else {
					split = append(split, f)
				}
			}
			fields = split
			dir := "."
			var pkgs []string
			for i, f := range fields {
				if f == "-C" && i+1 < len(fields) {
					dir = fields[i+1]
				}
			}
			for _, f := range fields {
				if f != "." && !strings.HasPrefix(f, "./") {
					continue
				}
				root, all := strings.CutSuffix(f, "...")
				p := filepath.Join(dir, root)
				if all {
					pkgs = append(pkgs, p+"/...")
				} else {
					pkgs = append(pkgs, p)
				}
				if f == "." {
					continue
				}
				paths++
				if st, err := os.Stat(p); err != nil || !st.IsDir() {
					t.Errorf("ci.yml:%d: %q names %s, which is not a directory of this tree", run.line, f, p)
				}
			}
			if len(fields) < 2 || fields[0] != "go" || fields[1] != "test" {
				continue
			}
			for i, f := range fields[:len(fields)-1] {
				prefix, ok := map[string]string{"-run": "Test|Fuzz", "-bench": "Benchmark", "-fuzz": "Fuzz"}[f]
				if !ok || fields[i+1] == "^$" {
					continue
				}
				patterns++
				declared := declaredFuncs(t, pkgs, prefix)
				top, _, _ := strings.Cut(fields[i+1], "/")
				for _, alt := range alternatives(top) {
					re, err := regexp.Compile(alt)
					if err != nil {
						t.Errorf("ci.yml:%d: %s %q: %v", run.line, f, alt, err)
						continue
					}
					if !slices.ContainsFunc(declared, re.MatchString) {
						t.Errorf("ci.yml:%d: %s %q matches no %s function of %v", run.line, f, alt, prefix, pkgs)
					}
				}
			}
		}
	}
	if paths == 0 {
		t.Error("ci.yml's run: commands name no ./ package; the rule checks nothing")
	}
	if patterns == 0 {
		t.Error("ci.yml's go test commands hold no -run, -bench or -fuzz pattern; the rule checks nothing")
	}
}

// shellCommands splits a run: value into its commands (between &&, ||, |,
// ; and line ends outside quotes), each as its words with the quotes
// removed.
func shellCommands(text string) [][]string {
	var cmds [][]string
	var words []string
	var word strings.Builder
	inWord := false
	var quote rune
	endWord := func() {
		if inWord {
			words = append(words, word.String())
		}
		word.Reset()
		inWord = false
	}
	endCmd := func() {
		endWord()
		if len(words) > 0 {
			cmds = append(cmds, words)
		}
		words = nil
	}
	for _, r := range text {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			word.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == '&' || r == '|' || r == ';' || r == '\n':
			endCmd()
		case r == ' ' || r == '\t':
			endWord()
		default:
			word.WriteRune(r)
			inWord = true
		}
	}
	endCmd()
	return cmds
}

// alternatives splits a regexp at its top-level | and expands each
// parenthesized group holding a |, so that every alternative of a -run or
// -bench pattern is checked on its own.
func alternatives(re string) []string {
	depth, start, group := 0, 0, -1
	var parts []string
	for i, r := range re {
		switch r {
		case '(':
			if depth == 0 {
				group = i
			}
			depth++
		case ')':
			depth--
			if depth == 0 && group >= 0 && strings.Contains(re[group:i], "|") {
				var out []string
				for _, alt := range alternatives(re[group+1 : i]) {
					out = append(out, alternatives(re[:group]+alt+re[i+1:])...)
				}
				return out
			}
		case '|':
			if depth == 0 {
				parts = append(parts, re[start:i])
				start = i + 1
			}
		}
	}
	if len(parts) == 0 {
		return []string{re}
	}
	var out []string
	for _, p := range append(parts, re[start:]) {
		out = append(out, alternatives(p)...)
	}
	return out
}

// declaredFuncs lists the top-level functions of the _test.go files in the
// package directories pkgs (a dir/... walks its subdirectories) whose names
// begin with one of the |-separated prefixes.
func declaredFuncs(t *testing.T, pkgs []string, prefixes string) []string {
	t.Helper()
	var names []string
	for _, pkg := range pkgs {
		var dirs []string
		if root, ok := strings.CutSuffix(pkg, "/..."); ok {
			filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err == nil && d.IsDir() {
					dirs = append(dirs, path)
				}
				return err
			})
		} else {
			dirs = []string{pkg}
		}
		for _, dir := range dirs {
			files, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
			for _, file := range files {
				f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				for _, decl := range f.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok || fn.Recv != nil {
						continue
					}
					for _, p := range strings.Split(prefixes, "|") {
						if strings.HasPrefix(fn.Name.Name, p) {
							names = append(names, fn.Name.Name)
						}
					}
				}
			}
		}
	}
	return names
}

// ciRun is one run: value of a workflow file, a block scalar's lines
// joined, with the line its key is on.
type ciRun struct {
	line int
	text string
}

// runCommands returns the workflow's run: values. A block scalar (run: |)
// holds every following line indented deeper than its key.
func runCommands(src string) []ciRun {
	runLine := regexp.MustCompile(`^(\s*)(?:- )?run:\s*(.*)$`)
	var runs []ciRun
	block := -1 // indent of the open block scalar's key, or -1
	for n, line := range strings.Split(src, "\n") {
		if block >= 0 {
			if indent := len(line) - len(strings.TrimLeft(line, " ")); strings.TrimSpace(line) == "" || indent > block {
				runs[len(runs)-1].text += "\n" + line
				continue
			}
			block = -1
		}
		m := runLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		runs = append(runs, ciRun{line: n + 1})
		if v := m[2]; strings.HasPrefix(v, "|") || strings.HasPrefix(v, ">") {
			block = len(m[1])
		} else {
			runs[len(runs)-1].text = v
		}
	}
	return runs
}
