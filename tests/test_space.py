import hashlib
import json
import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cfgtune import (
    CANONICAL_DIMENSIONS,
    CATEGORICAL_DIMENSIONS,
    Configuration,
    ConfigurationSpace,
    Dimension,
    SizeConstraint,
    SpaceFormatError,
    UnsatisfiableSpaceError,
    correct,
    load_space,
    parse_space,
    prune_report,
    save_space,
    space_from_mapping,
)
from cfgtune.space import (
    INTEGER_DIMENSIONS,
    _dimension_from_entry,
    sha256,
    write_json,
    write_jsonl,
)
from cfgtune.cli import derive_seed
from conftest import CANONICAL_SPACE_FILE, MINI_SPACE_DOCUMENT, REPO_ROOT, make_config


def test_canonical_space_loads_with_13_dimensions(canonical_space):
    assert tuple(d.name for d in canonical_space.dimensions) == CANONICAL_DIMENSIONS
    assert len(canonical_space.dimensions) == 13


def test_cardinality_is_exact_product(canonical_space):
    # independent recomputation from the shipped document entries
    with open(CANONICAL_SPACE_FILE) as handle:
        doc = json.load(handle)
    expected = 1
    for name in CANONICAL_DIMENSIONS:
        entry = doc[name]
        expected *= (entry["max"] - entry["min"] + 1) if isinstance(entry, dict) else len(entry)
    assert canonical_space.cardinality() == expected
    assert canonical_space.cardinality() == 45327011734820390400


def test_dimension_sizes(canonical_space):
    sizes = {d.name: d.size() for d in canonical_space.dimensions}
    assert sizes["vocab_size"] == 50265 - 1000 + 1
    assert sizes["tokenizer"] == 4
    assert sizes["hidden_dropout_prob"] == 5
    assert sizes["max_sequence_length"] == 257


def test_missing_dimension_rejected():
    doc = dict(MINI_SPACE_DOCUMENT)
    del doc["vocab_size"]
    with pytest.raises(SpaceFormatError) as err:
        space_from_mapping(doc)
    assert err.value.dimension == "vocab_size"


def test_unknown_dimension_rejected():
    doc = dict(MINI_SPACE_DOCUMENT, extra_knob=[1, 2])
    with pytest.raises(SpaceFormatError) as err:
        space_from_mapping(doc)
    assert err.value.dimension == "extra_knob"


@pytest.mark.parametrize(
    "name,entry",
    [
        ("vocab_size", {"min": 10, "max": 5}),  # inverted range
        ("vocab_size", {"min": 10}),  # missing key
        ("vocab_size", {"min": 1.5, "max": 5.0}),  # non-integer bounds
        ("vocab_size", "not-a-range"),
        ("hidden_dropout_prob", []),  # empty set
        ("hidden_dropout_prob", [0.1, 0.1]),  # duplicates
        ("tokenizer", [1, 2]),  # non-string options
        ("tokenizer", []),
        # NaN and infinities, which Python's json parses
        ("learning_rate", [math.nan, 0.001]),
        ("hidden_dropout_prob", [math.inf, 0.1]),
        ("learning_rate", [-math.inf, 0.001]),
    ],
)
def test_malformed_entries_rejected(name, entry):
    doc = dict(MINI_SPACE_DOCUMENT)
    doc[name] = entry
    with pytest.raises(SpaceFormatError) as err:
        space_from_mapping(doc)
    assert err.value.dimension == name


@pytest.mark.parametrize("name", sorted(INTEGER_DIMENSIONS))
@pytest.mark.parametrize(
    "entry",
    [
        {"min": 0, "max": 8},  # below 1
        {"min": True, "max": 8},  # bool bound
        [16.0, 32],  # float member
        [100.0, 128.0],
        [0, 16],  # member below 1
        [-4, 16],
        [True, 16],  # bool member
    ],
)
def test_integer_dimensions_accept_only_positive_integers(name, entry):
    doc = dict(MINI_SPACE_DOCUMENT)
    doc[name] = entry
    with pytest.raises(SpaceFormatError, match=name) as err:
        space_from_mapping(doc)
    assert err.value.dimension == name


def test_parse_space_rejects_invalid_json():
    with pytest.raises(SpaceFormatError):
        parse_space("{not json")


def test_validate_accepts_known_good(canonical_space):
    result = canonical_space.validate(make_config())
    assert result.valid and not result.violations


def test_validate_flags_out_of_range(canonical_space):
    result = canonical_space.validate(make_config(vocab_size=99))
    assert not result.valid
    assert any("vocab_size" in v for v in result.violations)


def test_validate_rejects_a_float_or_bool_for_a_counted_value_set():
    # 64.0 == 64 and True == 1, but the parser would reject both here.
    with open(CANONICAL_SPACE_FILE) as handle:
        doc = dict(json.load(handle), hidden_size=[64, 128], num_attention_heads=[1, 2, 4, 8])
    space = space_from_mapping(doc)
    assert space.validate(make_config(hidden_size=64, num_attention_heads=1))
    for outsider in (dict(hidden_size=64.0), dict(hidden_size=64, num_attention_heads=True)):
        config = make_config(**{"hidden_size": 64, "num_attention_heads": 1, **outsider})
        result = space.validate(config)
        assert not result.valid and len(result.violations) == 1
        with pytest.raises(ValueError, match="not in dimension"):
            space.genome(config)


def test_validate_flags_head_divisibility(canonical_space):
    result = canonical_space.validate(make_config(hidden_size=100, num_attention_heads=8))
    assert not result.valid
    assert any("divisible" in v for v in result.violations)


def test_encode_matches_manual_components(canonical_space):
    config = make_config()
    vector = canonical_space.encode(config)
    assert vector[0] == 0.0  # first tokenizer option
    assert vector[1] == 50265.0
    assert vector[4] == 0.0  # first activation option
    assert vector[11] == 0.0001
    assert len(vector) == 13


def test_encode_rejects_invalid(canonical_space):
    with pytest.raises(ValueError):
        canonical_space.encode(make_config(vocab_size=50))


def test_encode_normalized_components_in_unit_interval(canonical_space):
    for seed in range(5):
        for config in canonical_space.sample_uniform(20, seed=seed):
            normalized = canonical_space.encode_genome(canonical_space.genome(config), normalize=True)
            assert all(0.0 <= x <= 1.0 for x in normalized)


def test_single_valued_dimension_normalizes_to_zero(mini_space):
    position = CANONICAL_DIMENSIONS.index("max_sequence_length")
    assert mini_space.encode_genome(mini_space.genome(_mini_member()), normalize=True)[position] == 0.0


def test_sample_uniform_is_seed_deterministic(canonical_space):
    a = canonical_space.sample_uniform(25, seed=7)
    b = canonical_space.sample_uniform(25, seed=7)
    c = canonical_space.sample_uniform(25, seed=8)
    assert a == b
    assert a != c
    assert all(canonical_space.validate(cfg) for cfg in a)


def test_checksum_ignores_document_key_order(canonical_space):
    with open(CANONICAL_SPACE_FILE) as handle:
        doc = json.load(handle)
    shuffled = {k: doc[k] for k in sorted(doc, reverse=True)}
    assert space_from_mapping(shuffled).checksum() == canonical_space.checksum()


def test_checksum_changes_with_content(canonical_space):
    doc = canonical_space.to_document()
    doc["vocab_size"] = {"min": 1000, "max": 50264}
    assert space_from_mapping(doc).checksum() != canonical_space.checksum()


# The checksum of spaces/listing3.json and one derived seed, as hashlib gave
# them before cfgtune had its own SHA-256 helper.
LISTING3_CHECKSUM = "d96468b6df6dc46d087dc4bc9d69788c3a025041de1dc303b14d95ecd8326aba"
ORACLE_SEED_OF_11 = 18206941476734909917


@pytest.mark.parametrize(
    "data",
    [b"", b"cfgtune prune", "Größe 模型 ≤ 3 MB".encode("utf-8"), bytes(range(256)) * 4096],
    ids=["empty", "ascii", "utf-8", "1-MiB"],
)
def test_sha256_is_hashlibs_sha256(data):
    assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


def test_checksum_and_derived_seed_are_unchanged(canonical_space):
    assert canonical_space.checksum() == LISTING3_CHECKSUM
    assert derive_seed(11, "oracle") == ORACLE_SEED_OF_11


def test_sha256_falls_back_to_hashlib_with_the_same_digests():
    """With neither built-in SHA-256 module importable, the helper takes
    ``hashlib``'s constructor, and the checksum and the seed stay the same."""
    code = (
        "import json, sys\n"
        'sys.modules["_sha256"] = sys.modules["_sha2"] = None\n'
        "from cfgtune import load_space\n"
        "from cfgtune.cli import derive_seed\n"
        "print(json.dumps([load_space(sys.argv[1]).checksum(), derive_seed(11, 'oracle'),"
        " 'hashlib' in sys.modules]))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(CANONICAL_SPACE_FILE)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [LISTING3_CHECKSUM, ORACLE_SEED_OF_11, True]


def test_save_load_round_trip(tmp_path, canonical_space):
    path = tmp_path / "space.json"
    save_space(canonical_space, path)
    assert load_space(path) == canonical_space


def corrected(config, space, rng):
    """``correct`` applied to the configuration's genome, decoded."""
    return space.configuration(correct(space.genome(config), space, rng))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "write",
    [
        lambda path, value: write_json(path, {"hypervolume": 1.0, "best_size_mb": value}),
        lambda path, value: write_jsonl(path, [{"best_size_mb": 1.0}, {"best_size_mb": value}]),
    ],
    ids=["json", "jsonl"],
)
def test_writers_refuse_non_finite_numbers_and_leave_no_file(tmp_path, write, value):
    # JSON has no token for them; Python's json would write NaN or Infinity.
    with pytest.raises(ValueError):
        write(tmp_path / "artifact.json", value)
    assert list(tmp_path.iterdir()) == []


def test_correct_resamples_heads_from_divisors(canonical_space):
    # hidden 96 with 5 heads: repaired head count must divide 96 and stay in range
    allowed = {1, 2, 3, 4, 6, 8, 12}
    seen = set()
    for seed in range(200):
        fixed = corrected(
            make_config(hidden_size=96, num_attention_heads=5),
            canonical_space,
            random.Random(seed),
        )
        assert canonical_space.validate(fixed)
        assert fixed.hidden_size == 96
        assert fixed.num_attention_heads in allowed
        seen.add(fixed.num_attention_heads)
    assert len(seen) > 1  # actually random, not clamped


def test_correct_keeps_valid_configs_unchanged(canonical_space):
    genome = canonical_space.genome(make_config())
    rng = random.Random(0)
    state = rng.getstate()
    assert correct(genome, canonical_space, rng) is genome
    assert rng.getstate() == state


def test_genome_round_trip_and_out_of_dimension_values(canonical_space):
    config = make_config()
    genome = canonical_space.genome(config)
    assert genome[CANONICAL_DIMENSIONS.index("vocab_size")] == 50265 - 1000
    assert canonical_space.configuration(genome) == config
    # A genome holds only in-dimension indices.
    with pytest.raises(ValueError, match="vocab_size"):
        canonical_space.genome(make_config(vocab_size=999999))
    with pytest.raises(ValueError, match="hidden_dropout_prob"):
        canonical_space.genome(make_config(hidden_dropout_prob=0.77))


def _mini_member(**overrides) -> Configuration:
    values = dict(
        tokenizer="Byte-Pair Encoding",
        vocab_size=1000,
        num_hidden_layers=1,
        hidden_size=16,
        hidden_act="GELU",
        hidden_dropout_prob=0.1,
        intermediate_size=64,
        num_attention_heads=1,
        attention_probs_dropout_prob=0.1,
        max_sequence_length=256,
        position_embedding_type="absolute",
        learning_rate=0.001,
        batch_size=16,
    )
    values.update(overrides)
    return Configuration.from_dict(values)


def test_correct_resamples_heads_when_divisor_exists():
    doc = dict(
        MINI_SPACE_DOCUMENT,
        hidden_size=[18],
        num_attention_heads={"min": 2, "max": 4},
    )
    space = space_from_mapping(doc)
    bad = _mini_member(hidden_size=18, num_attention_heads=4)
    for seed in range(50):
        fixed = corrected(bad, space, random.Random(seed))
        assert space.validate(fixed)
        assert fixed.hidden_size == 18
        assert fixed.num_attention_heads in {2, 3}


def test_correct_falls_back_to_multiple_of_head_count():
    # no in-range head count divides 17, so the hidden size itself must move
    doc = dict(
        MINI_SPACE_DOCUMENT,
        hidden_size=[17, 18],
        num_attention_heads={"min": 2, "max": 4},
    )
    space = space_from_mapping(doc)
    bad = _mini_member(hidden_size=17, num_attention_heads=3)
    for seed in range(50):
        fixed = corrected(bad, space, random.Random(seed))
        assert space.validate(fixed)
        assert fixed.hidden_size == 18
        assert fixed.num_attention_heads in {2, 3}


def test_correct_unsatisfiable_space_raises():
    # hidden forced to a prime with heads range excluding 1 and the prime
    doc = dict(
        MINI_SPACE_DOCUMENT,
        hidden_size=[17],
        num_attention_heads={"min": 2, "max": 4},
    )
    space = space_from_mapping(doc)
    bad = _mini_member(hidden_size=17, num_attention_heads=2)
    with pytest.raises(UnsatisfiableSpaceError):
        corrected(bad, space, random.Random(0))


@given(seed=st.integers(min_value=0, max_value=10_000))
def test_corrected_samples_always_validate(seed, mini_space):
    rng = random.Random(seed)
    config = mini_space.configuration(mini_space.sample_genome(rng))
    assert mini_space.validate(config)


def test_from_dict_requires_all_fields():
    with pytest.raises(ValueError):
        Configuration.from_dict({"tokenizer": "Word"})
    values = make_config().as_dict()
    del values["batch_size"]
    with pytest.raises(ValueError, match="missing fields: batch_size"):
        Configuration.from_dict(values)


def test_configuration_contract():
    config = make_config()
    assert tuple(config.as_dict()) == CANONICAL_DIMENSIONS
    assert Configuration.from_dict(dict(reversed(config.as_dict().items()))) == config
    assert getattr(config, "hidden_size") == config.hidden_size == 768
    wider = config._replace(hidden_size=1024)
    assert wider.hidden_size == 1024 and config.hidden_size == 768
    assert wider.as_dict() == {**config.as_dict(), "hidden_size": 1024}
    with pytest.raises(ValueError):
        config._replace(hidden_width=1024)
    twin = make_config()
    assert twin == config and hash(twin) == hash(config) and twin is not config
    assert wider != config
    assert {config: 1}[twin] == 1
    with pytest.raises(AttributeError):
        config.hidden_size = 1024
    with pytest.raises(AttributeError):
        config.extra = 1


@pytest.mark.parametrize(
    "name, domain, message",
    [
        ("hidden_dropout_prob", (), "non-empty"),
        ("vocab_size", range(5, 1), "non-empty"),
        ("hidden_dropout_prob", (0.1, 0.2, 0.1), "duplicate values"),
        ("hidden_act", ("GELU", "GELU"), "duplicate values"),
        ("num_hidden_layers", range(1, 9, 2), "step 1"),
        # Each of these used to build: the first two then crashed in
        # sampling, and the others gave a space that prune, sampling or
        # validate accepted.
        ("num_attention_heads", range(0, 4), "positive integers"),
        ("hidden_size", (64.5, 128), "positive integers"),
        ("vocab_size", range(-5, 100), "positive integers"),
        ("learning_rate", (math.nan, 0.1), "finite numbers"),
        ("batch_size", (True, 2), "finite numbers"),
        # Both ends fit a float, but len() of the range overflows.
        ("learning_rate", range(0, 2**63 + 1), "too many values to index"),
        ("vocab_size", range(0, 10**300 + 1), "too many values to index"),
    ],
    ids=[
        "empty", "empty range", "duplicate values", "duplicate options", "step 2",
        "zero heads", "float hidden size", "negative vocab", "nan rate", "bool batch",
        "unindexable rate range", "unindexable vocab range",
    ],
)
def test_dimension_domain_validation(name, domain, message):
    with pytest.raises(SpaceFormatError, match=message) as err:
        Dimension(name, domain)
    assert err.value.dimension == name


def test_range_length_rule_sits_in_the_dimension():
    # The longest indexable range builds and has a size; one value more is
    # refused by the dimension, and the document reader gives the same
    # message even for a range that starts below 1.
    assert Dimension("learning_rate", range(0, sys.maxsize)).size() == sys.maxsize
    with pytest.raises(SpaceFormatError, match="too many values to index"):
        Dimension("learning_rate", range(0, sys.maxsize + 1))
    with pytest.raises(SpaceFormatError, match="^vocab_size: range has too many values to index"):
        _dimension_from_entry("vocab_size", {"min": 0, "max": 10**300})


def valid_tuples(name):
    """Value sets that the rules for ``name`` admit."""
    if name in CATEGORICAL_DIMENSIONS:
        members = st.text(max_size=8)
    elif name in INTEGER_DIMENSIONS:
        members = st.integers(1, 2**53)
    else:
        members = st.integers(-(2**53), 2**53) | st.floats(allow_nan=False, allow_infinity=False)
    return st.lists(members, min_size=1, max_size=6, unique=True).map(tuple)


def valid_domains(name):
    """Domains that the rules for ``name`` admit; a range of numbers may be
    long, since only its ends are checked."""
    if name in CATEGORICAL_DIMENSIONS:
        return valid_tuples(name)
    low = 1 if name in INTEGER_DIMENSIONS else -(2**53)
    ranges = st.builds(
        lambda start, count: range(start, start + count),
        st.integers(low, 2**53),
        st.integers(1, 2**40),
    )
    return ranges | valid_tuples(name)


def bad_members(name):
    if name in CATEGORICAL_DIMENSIONS:
        return st.integers() | st.floats()
    if name in INTEGER_DIMENSIONS:
        return st.sampled_from([0, -1, 2.5, True])
    return st.sampled_from([math.nan, math.inf, -math.inf, True, "0.1"])


@pytest.mark.parametrize("name", CANONICAL_DIMENSIONS)
@given(data=st.data())
def test_valid_domain_round_trips_through_its_entry(name, data):
    dim = Dimension(name, data.draw(valid_domains(name)))
    twin = _dimension_from_entry(name, json.loads(json.dumps(dim.to_entry())))
    assert twin == dim and twin is not dim


@pytest.mark.parametrize("name", CANONICAL_DIMENSIONS)
@given(data=st.data())
def test_one_bad_member_fails_the_domain_and_its_entry(name, data):
    members = list(data.draw(valid_tuples(name)))
    members.insert(data.draw(st.integers(0, len(members))), data.draw(bad_members(name)))
    for build, domain in ((Dimension, tuple(members)), (_dimension_from_entry, members)):
        with pytest.raises(SpaceFormatError, match=f"^{name}: ") as err:
            build(name, domain)
        assert err.value.dimension == name


def test_dimension_equality_is_name_and_domain():
    dim = Dimension("batch_size", (16, 32))
    assert dim == Dimension("batch_size", (16, 32)) and not dim.options
    assert dim != Dimension("batch_size", (32, 16))
    assert dim != Dimension("learning_rate", (16, 32))
    assert Dimension("batch_size", range(16, 18)) != Dimension("batch_size", (16, 17))


@pytest.mark.parametrize(
    "dim, bounds, outsiders, changed, retained",
    [
        (
            Dimension("num_hidden_layers", range(1, 9)), (1, 8),
            [True, 2.0, 0, 9], [range(2, 9), range(1, 10)], "[1, 8]",
        ),
        (
            Dimension("hidden_dropout_prob", (0.1, 0.2)), (0.1, 0.2),
            [0.15, "0.1", True], [(0.1, 0.3)], "{0.1, 0.2}",
        ),
        (
            Dimension("hidden_size", (64, 1, 32)), (1, 64),
            [48, 16.5, 64.0, 1.0, True], [(64, 1), (64, 1, 48)], "{64, 1, 32}",
        ),
        (
            Dimension("hidden_act", ("GELU", "ReLU")), None,
            ["SiLU", 0, True], [("GELU", "SiLU")], "{GELU, ReLU}",
        ),
    ],
    ids=["integer range", "value set", "unsorted value set", "categorical"],
)
def test_dimension_rules_per_kind(canonical_space, dim, bounds, outsiders, changed, retained):
    # A categorical dimension has no bounds, and its domain is its options.
    assert dim.options == (dim.domain if bounds is None else ())
    if bounds is None:
        for bound in (dim.min_value, dim.max_value):
            with pytest.raises(TypeError, match="categorical"):
                bound()
    else:
        assert (dim.min_value(), dim.max_value()) == bounds
        assert (dim.lo, dim.hi) == tuple(map(float, bounds))
    assert all(dim.contains(value) for value in dim.iter_values())
    assert not any(dim.contains(value) for value in outsiders)
    for domain in changed:
        assert Dimension(dim.name, domain) != dim
    twin = _dimension_from_entry(dim.name, dim.to_entry())
    assert twin == dim and twin is not dim
    space = ConfigurationSpace(
        tuple(dim if other.name == dim.name else other for other in canonical_space.dimensions)
    )
    report = prune_report(space, space, SizeConstraint())
    assert {e["name"]: e["retained"] for e in report["dimensions"]}[dim.name] == retained


def test_space_requires_canonical_order(canonical_space):
    dims = list(canonical_space.dimensions)
    dims[0], dims[1] = dims[1], dims[0]
    with pytest.raises(SpaceFormatError):
        ConfigurationSpace(tuple(dims))


def test_categorical_numeric_helpers_raise():
    dim = Dimension("tokenizer", ("a", "b"))
    with pytest.raises(TypeError):
        dim.min_value()
    # Categorical entries encode as their option index.
    assert (dim.lo, dim.hi, dim.index("b")) == (0.0, 1.0, 1)
