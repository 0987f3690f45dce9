package server

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ir"
)

// testDeadline is the server default deadline the key tests normalize
// against; any non-zero value works, the tests only need one fixed point.
const testDeadline = 2 * time.Second

// buildHashKernel emits the same two-block DFG with the pure ops of the hot
// block in a caller-chosen order and arbitrary op IDs.
func buildHashKernel(reordered bool) *ir.Program {
	p := ir.NewProgram("kernel")
	b := p.AddBlock("hot", 5000)
	x, y := b.Arg(ir.R(1)), b.Arg(ir.R(2))
	var rot, masked ir.Operand
	if reordered {
		masked = b.And(y, b.Imm(0xFF))
		rot = b.Rotl(x, b.Imm(7))
	} else {
		rot = b.Rotl(x, b.Imm(7))
		masked = b.And(y, b.Imm(0xFF))
	}
	b.Def(ir.R(3), b.Xor(rot, masked))
	tail := p.AddBlock("tail", 100)
	tail.Def(ir.R(4), tail.Add(tail.Arg(ir.R(3)), tail.Imm(1)))
	if reordered {
		// Renumber IDs too: identity must be structural, not positional.
		for _, op := range b.Ops {
			op.ID += 1000
		}
	}
	return p
}

// Two semantically identical programs whose blocks list the DFG in
// different orders (and with different op IDs) must share one cache key —
// that is what makes resubmission after cosmetic edits a cache hit.
func TestCacheKeyCanonicalizesNodeOrder(t *testing.T) {
	req := Request{Config: core.Config{Budget: 10}}.Normalized(testDeadline)
	a, c := buildHashKernel(false), buildHashKernel(true)
	if a.String() == c.String() {
		t.Fatal("test is vacuous: programs have identical text")
	}
	if req.cacheKey("customize", a) != req.cacheKey("customize", c) {
		t.Error("reordered-but-identical programs produced different cache keys")
	}
}

func TestCacheKeySensitiveToProgram(t *testing.T) {
	req := Request{}.Normalized(testDeadline)
	base := req.cacheKey("customize", buildHashKernel(false))
	p := buildHashKernel(false)
	p.Blocks[0].Weight = 4999
	if req.cacheKey("customize", p) == base {
		t.Error("profile-weight change did not change the cache key")
	}
}

// requestIdentityFields lists the wire keys that select the input program
// rather than configure the pipeline. They reach the cache key through
// ir.Fingerprint of the resolved program — hashing the handle text itself
// would make renamed-but-identical programs distinct — so the reflection
// guards skip them.
var requestIdentityFields = map[string]bool{
	"benchmark": true,
	"program":   true,
}

// wireFields maps each JSON key of the struct v to its field, descending
// into untagged embedded structs the way encoding/json promotes their
// fields (so Request's keys include core.Config's). v must be addressable
// for the returned fields to be settable.
func wireFields(v reflect.Value) map[string]reflect.Value {
	out := map[string]reflect.Value{}
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		switch {
		case !f.IsExported() || name == "-":
		case f.Anonymous && name == "" && f.Type.Kind() == reflect.Struct:
			for k, fv := range wireFields(v.Field(i)) {
				out[k] = fv
			}
		case name == "":
			out[f.Name] = v.Field(i)
		default:
			out[name] = v.Field(i)
		}
	}
	return out
}

// configKeys lists Request's wire keys minus the program-identity ones, in
// a stable order.
func configKeys() []string {
	fields := wireFields(reflect.ValueOf(&Request{}).Elem())
	for k := range requestIdentityFields {
		delete(fields, k)
	}
	return sortedKeys(fields)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// mutate sets field (addressable) to a value different from its current
// one, returning false for kinds the guard does not know how to perturb.
// Integers step by one so an enum such as select_mode stays valid.
func mutate(field reflect.Value) bool {
	switch field.Kind() {
	case reflect.String:
		field.SetString(field.String() + "-mutant")
	case reflect.Bool:
		field.SetBool(!field.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		field.SetInt(field.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		field.SetUint(field.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		field.SetFloat(field.Float() + 2.5)
	default:
		return false
	}
	return true
}

// The wire surface is exactly these keys. A field added to core.Config (or
// to explore.Constraints, which it embeds) without a json:"-" tag would
// silently become a request option; this pins the set so that takes a
// deliberate edit here. The encoded form of a normalized request with
// every knob set must carry the same keys and decode back to the same
// cache identity.
func TestRequestWireKeys(t *testing.T) {
	want := strings.Fields(`benchmark budget cost_model deadline_ms max_candidates
		max_inputs max_outputs multi_function optimize program select_mode
		strategy use_opcode_classes use_variants verify`) // sorted
	r := Request{Benchmark: "crc", Program: "text"}.Normalized(testDeadline)
	fields := wireFields(reflect.ValueOf(&r).Elem())
	if got := sortedKeys(fields); !slices.Equal(got, want) {
		t.Fatalf("Request wire keys = %v, want %v", got, want)
	}
	for k, f := range fields {
		if !requestIdentityFields[k] && !mutate(f) {
			t.Fatalf("field %s has kind %s the guard cannot mutate; extend mutate()", k, f.Kind())
		}
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var encoded map[string]any
	if err := json.Unmarshal(b, &encoded); err != nil {
		t.Fatal(err)
	}
	if got := sortedKeys(encoded); !slices.Equal(got, want) {
		t.Errorf("encoded request keys = %v, want %v", got, want)
	}
	var back Request
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	p := buildHashKernel(false)
	if back = back.Normalized(testDeadline); back.cacheKey("customize", p) != r.cacheKey("customize", p) ||
		back.Benchmark != r.Benchmark || back.Program != r.Program {
		t.Errorf("request does not survive a JSON round trip:\n got %s\nwant %+v", b, r)
	}
}

// Every configuration field on the wire must feed cacheKey: changing any
// one of them is different work and must never alias a cached result. The
// walk covers the promoted core.Config fields, so a knob added to the wire
// is guarded without editing this test.
func TestCacheKeySensitiveToEveryRequestField(t *testing.T) {
	p := buildHashKernel(false)
	base := Request{}.Normalized(testDeadline)
	baseKey := base.cacheKey("customize", p)
	seen := map[string]string{}
	for _, name := range configKeys() {
		r := base
		f := wireFields(reflect.ValueOf(&r).Elem())[name]
		if !mutate(f) {
			t.Fatalf("field %s has kind %s the guard cannot mutate; extend mutate()", name, f.Kind())
		}
		key := r.cacheKey("customize", p)
		if key == baseKey {
			t.Errorf("changing %s did not change the cache key", name)
		}
		if prev, dup := seen[key]; dup {
			t.Errorf("%s and %s collide on one key", name, prev)
		}
		seen[key] = name
	}
}

// Spelled-out defaults and zero values are the same request. The explicit
// spelling is derived from the normalized zero request itself, so a new
// wire field with a default in core.Config.Normalize is covered
// automatically.
func TestCacheKeyNormalizesDefaults(t *testing.T) {
	p := buildHashKernel(false)
	norm := Request{}.Normalized(testDeadline)
	implicit := norm.cacheKey("customize", p)
	// Normalizing must be idempotent...
	if again := norm.Normalized(testDeadline); !reflect.DeepEqual(again, norm) {
		t.Errorf("Normalized is not idempotent: %+v != %+v", again, norm)
	}
	// ...and every individually spelled-out default must collide with zero.
	normFields := wireFields(reflect.ValueOf(&norm).Elem())
	for _, name := range configKeys() {
		var r Request
		wireFields(reflect.ValueOf(&r).Elem())[name].Set(normFields[name])
		if key := r.Normalized(testDeadline).cacheKey("customize", p); key != implicit {
			t.Errorf("spelling out the default %s changed the cache key", name)
		}
	}
}

// Regression test: a request leaving deadline_ms at 0 and one spelling out
// the server's default deadline are the same work and must share one cache
// key — otherwise identical runs are neither coalesced by singleflight nor
// shared in the LRU. normalized() must resolve DeadlineMS against the
// server default before cacheKey hashes it.
func TestCacheKeyNormalizesDeadline(t *testing.T) {
	p := buildHashKernel(false)
	implicit := Request{}.Normalized(testDeadline).cacheKey("customize", p)
	spelled := Request{DeadlineMS: int(testDeadline / time.Millisecond)}
	explicit := spelled.Normalized(testDeadline).cacheKey("customize", p)
	if implicit != explicit {
		t.Error("deadline_ms 0 and the spelled-out server default produced different cache keys")
	}
	// A genuinely different deadline is different work (truncation point
	// differs) and must not collide with the default.
	other := Request{DeadlineMS: int(testDeadline/time.Millisecond) + 1000}
	if other.Normalized(testDeadline).cacheKey("customize", p) == implicit {
		t.Error("a non-default deadline_ms collided with the default's cache key")
	}
}

// The strategy knob is part of cache identity: enumerate and improve runs
// on one program must occupy distinct cache entries, and the default
// spelling normalizes like every other field.
func TestCacheKeySeparatesStrategies(t *testing.T) {
	p := buildHashKernel(false)
	keys := map[string]string{}
	for _, strat := range []string{"", "enumerate", "improve"} {
		for _, cost := range []string{"", "area", "uarch"} {
			r := Request{Config: core.Config{Strategy: strat, CostModel: cost}}.Normalized(testDeadline)
			keys[fmt.Sprintf("%s/%s", strat, cost)] = r.cacheKey("customize", p)
		}
	}
	if keys["/"] != keys["enumerate/area"] {
		t.Error("default strategy spelling did not normalize to enumerate/area")
	}
	distinct := map[string]bool{}
	for _, combo := range []string{"enumerate/area", "enumerate/uarch", "improve/area", "improve/uarch"} {
		if distinct[keys[combo]] {
			t.Errorf("strategy/cost combination %s aliases another combination", combo)
		}
		distinct[keys[combo]] = true
	}
}
