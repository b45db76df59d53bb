package bench

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
)

// ModuleLines is one row of the Section 7.6 implementation-effort table.
type ModuleLines struct {
	Module string
	Lines  int
}

// CountLines counts non-test, non-comment, non-blank Go lines per core
// module of this repository, mirroring the paper's counting rules
// ("excluding their test code and comments").
func CountLines() ([]ModuleLines, error) {
	root, err := findModuleRoot()
	if err != nil {
		return nil, err
	}
	modules := []struct{ name, dir string }{
		{"pregel (user API)", "pregel"},
		{"pregel/algorithms", "pregel/algorithms"},
		{"internal/core (pregelix)", "internal/core"},
		{"cmd/pregelix (serving tier)", "cmd/pregelix"},
		{"internal/hyracks (engine)", "internal/hyracks"},
		{"internal/operators", "internal/operators"},
		{"internal/storage", "internal/storage"},
		{"internal/dfs", "internal/dfs"},
		{"internal/baselines", "internal/baselines"},
	}
	var out []ModuleLines
	for _, m := range modules {
		n, err := countDir(filepath.Join(root, m.dir))
		if err != nil {
			return nil, err
		}
		out = append(out, ModuleLines{Module: m.name, Lines: n})
	}
	return out, nil
}

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ".", nil
		}
		dir = parent
	}
}

func countDir(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	total := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		n, err := countFile(filepath.Join(dir, name))
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

func countFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	n := 0
	inBlock := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if inBlock {
			if strings.Contains(line, "*/") {
				inBlock = false
			}
			continue
		}
		switch {
		case line == "" || strings.HasPrefix(line, "//"):
		case strings.HasPrefix(line, "/*"):
			if !strings.Contains(line, "*/") {
				inBlock = true
			}
		default:
			n++
		}
	}
	return n, sc.Err()
}
