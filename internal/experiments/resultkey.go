package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Result-cache key derivation.
//
// A unit's key is the content address of its result: SHA-256 over a
// canonical tuple of everything the result depends on —
//
//   - both device descriptions (the proposed machine under test and
//     the conventional reference), hashed from their canonical JSON;
//   - the experiment name and the unit name (a unit RENAME is thereby
//     an INVALIDATION — see sweep.Unit.Key);
//   - the experiment's fidelity parameters (instruction budgets,
//     SPLASH data-set size, axis fingerprints — whichever of Options
//     the unit's computation actually reads);
//   - the unit's seed;
//   - the result codec's schema (type:version), so a shape change
//     re-keys as well as version-failing old entries.
//
// Keys deliberately over-approximate: a parameter folded in that a
// particular unit happens not to read costs at worst a spurious miss
// (recompute), never a wrong hit. What a key must never do is omit
// an input the computation reads. TraceSource is intentionally not a
// key input — replayed streams are verified reference-for-reference
// identical to live generation (see internal/tracestore), so the
// result is the same either way.
type keyer struct {
	exp    string
	dev    string
	params string
}

// deviceHash is the canonical fingerprint of a machine description:
// hex SHA-256 of its JSON encoding (fixed field order, all geometry
// and latency parameters included).
func deviceHash(d core.Device) string {
	raw, err := json.Marshal(d)
	if err != nil {
		// core.Device is a plain struct of scalars; Marshal cannot fail.
		panic(fmt.Sprintf("experiments: hashing device: %v", err))
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// newKeyer builds the key deriver for one experiment job: the devices
// under test plus the experiment-specific parameter list (each entry
// "name=value").
func newKeyer(exp string, o Options, params ...string) keyer {
	return keyer{
		exp:    exp,
		dev:    deviceHash(o.Device()) + "+" + deviceHash(core.Reference()),
		params: strings.Join(params, ","),
	}
}

// key derives one unit's cache key: a filename-safe label of the unit
// name (at most 80 bytes, keeping cache directories greppable), a dash,
// and the hex digest that carries the actual content address
// (resultstore sanitizes the label but never the digest, so two
// distinct keys cannot alias).
func (k keyer) key(unitName string, seed int64, schema string, extra ...string) string {
	params := k.params
	if len(extra) > 0 {
		if params != "" {
			params += ","
		}
		params += strings.Join(extra, ",")
	}
	canon := "rk1|dev=" + k.dev + "|exp=" + k.exp + "|unit=" + unitName + "|params=" + params +
		"|seed=" + strconv.FormatInt(seed, 10) + "|schema=" + schema
	sum := sha256.Sum256([]byte(canon))
	b := make([]byte, 0, 81+hex.EncodedLen(len(sum)))
	for _, r := range unitName {
		if len(b) == 80 {
			break
		}
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			b = append(b, byte(r))
		default:
			b = append(b, '_')
		}
	}
	b = append(b, '-')
	n := len(b)
	b = b[:n+hex.EncodedLen(len(sum))]
	hex.Encode(b[n:], sum[:])
	return string(b)
}

// unit builds one cacheable sweep unit: the name and seed are written
// once and the key derives from them, and the codec's type parameter
// makes the compiler check that it encodes what run returns.
func unit[T any](k keyer, name string, seed int64, c gobCodec[T], run func() (T, error), extra ...string) sweep.Unit {
	return sweep.Unit{
		Name:  name,
		Key:   k.key(name, seed, c.schema(), extra...),
		Codec: c,
		Run:   func() (interface{}, error) { return run() },
	}
}

// familyPointsFingerprint hashes a registered design-point list. The
// designspace family units' names encode only the column size and
// bench — the axes come from Options — so the registered point set
// must be a key input: a family pass result answers exactly the
// victim-bearing points it was built with.
func familyPointsFingerprint(column int, pts []workload.FamilyPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "col=%d", column)
	for _, p := range pts {
		fmt.Fprintf(&b, "|%d/%d/%d", p.Banks, p.Ways, p.VictimEntries)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:16])
}
