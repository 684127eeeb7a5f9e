package promtext

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

var (
	sampleRE = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$`)
	leRE     = regexp.MustCompile(`(?:^|,)le="([^"]*)"`)
)

// Lint checks an exposition body the way a strict scraper would: every
// sample belongs to the family whose HELP and TYPE lines were the last
// ones before it, no family is declared twice, every value parses, and
// each histogram series has non-decreasing buckets ending in an le="+Inf"
// bucket equal to its _count. It exists for the endpoint tests.
func Lint(body []byte) error {
	types := map[string]string{}
	family, helped := "", ""
	lastBucket := map[string]float64{} // series → last _bucket value
	lastLE := map[string]string{}
	for n, line := range strings.Split(strings.TrimSuffix(string(body), "\n"), "\n") {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("promtext: line %d %q: %s", n+1, line, fmt.Sprintf(format, args...))
		}
		if f := strings.SplitN(line, " ", 4); f[0] == "#" {
			switch {
			case len(f) == 4 && f[1] == "HELP":
				helped = f[2]
			case len(f) == 4 && f[1] == "TYPE":
				if f[2] != helped {
					return fail("TYPE without a HELP line before it")
				}
				if _, dup := types[f[2]]; dup {
					return fail("family declared twice")
				}
				family = f[2]
				types[family] = f[3]
			default:
				return fail("malformed comment")
			}
			continue
		}
		m := sampleRE.FindStringSubmatch(line)
		if m == nil {
			return fail("malformed sample")
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return fail("value does not parse")
		}
		name, suffix := m[1], ""
		if types[family] == "histogram" {
			suffix = strings.TrimPrefix(name, family)
			name = family
		}
		if name != family {
			return fail("sample outside its family (open family %q)", family)
		}
		switch series := family + "{" + leRE.ReplaceAllString(m[2], "") + "}"; suffix {
		case "":
		case "_bucket":
			le := leRE.FindStringSubmatch(m[2])
			if le == nil {
				return fail("bucket without an le label")
			}
			if v < lastBucket[series] {
				return fail("buckets are not cumulative")
			}
			lastBucket[series], lastLE[series] = v, le[1]
		case "_sum":
		case "_count":
			if lastLE[series] != "+Inf" || lastBucket[series] != v {
				return fail("last bucket le=%q value %v, want +Inf equal to the count", lastLE[series], lastBucket[series])
			}
		default:
			return fail("unknown histogram sample suffix %q", suffix)
		}
	}
	return nil
}
