//! Random conjunctive-query workloads (experiment E7) and random instances.
//!
//! The paper cites statistics of the form "under a couple of hundred access
//! constraints, 60–77 % of randomly generated queries are boundedly
//! evaluable".  [`generate_queries`] produces random *acyclic* CQs over an
//! arbitrary schema by growing a join tree: it starts from a random atom,
//! then repeatedly joins a new atom on a variable of the query built so far,
//! and finally binds a random subset of attribute positions to constants.
//! The constant-binding probability controls how often the access-schema
//! indices become applicable, i.e. how large the boundedly-rewritable
//! fraction is.
//!
//! [`generate_cyclic_queries`] is the adversarial counterpart used by the
//! join-planner differential tests: it produces *cyclic* CQs — variable
//! k-cycles (triangles for `k = 3`) threaded through the first two attribute
//! positions of randomly chosen relations, optionally decorated with
//! self-join atoms and constants — precisely the shapes whose atom-at-a-time
//! plans degenerate, and whose answers must still agree with the reference
//! engine.  [`generate_database`] produces random instances of a
//! schema so query/instance pairs can be drawn from the same seed space.

use bqr_data::{Database, DatabaseSchema, Tuple, Value};
use bqr_query::{Atom, ConjunctiveQuery, Term};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the random query generator.
#[derive(Debug, Clone)]
pub struct RandomQueryConfig {
    /// Number of atoms per query.
    pub atoms: usize,
    /// Probability that an attribute position is bound to a constant.
    pub constant_probability: f64,
    /// Pool of constants to draw from.
    pub constants: Vec<Value>,
    /// Number of head variables (capped by the number of variables present).
    pub head_variables: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomQueryConfig {
    fn default() -> Self {
        RandomQueryConfig {
            atoms: 3,
            constant_probability: 0.3,
            constants: (0..20).map(Value::int).collect(),
            head_variables: 1,
            seed: 1,
        }
    }
}

/// Generate `count` random acyclic conjunctive queries over `schema`.
pub fn generate_queries(
    schema: &DatabaseSchema,
    config: &RandomQueryConfig,
    count: usize,
) -> Vec<ConjunctiveQuery> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let relations: Vec<_> = schema.relations().cloned().collect();
    assert!(
        !relations.is_empty(),
        "the schema must have at least one relation"
    );
    (0..count)
        .map(|_| generate_one(&relations, config, &mut rng))
        .collect()
}

fn generate_one(
    relations: &[bqr_data::RelationSchema],
    config: &RandomQueryConfig,
    rng: &mut StdRng,
) -> ConjunctiveQuery {
    let mut atoms: Vec<Atom> = Vec::with_capacity(config.atoms);
    let mut var_counter = 0usize;
    let fresh = |var_counter: &mut usize| {
        let v = format!("x{var_counter}");
        *var_counter += 1;
        v
    };
    let mut all_vars: Vec<String> = Vec::new();

    for i in 0..config.atoms {
        let rel = &relations[rng.gen_range(0..relations.len())];
        let mut args = Vec::with_capacity(rel.arity());
        // Join the new atom on one existing variable (keeps the query acyclic
        // and connected); the joining position is chosen uniformly.
        let join_position = if i > 0 && !all_vars.is_empty() {
            Some(rng.gen_range(0..rel.arity().max(1)))
        } else {
            None
        };
        for pos in 0..rel.arity() {
            if Some(pos) == join_position {
                let existing = all_vars[rng.gen_range(0..all_vars.len())].clone();
                args.push(Term::var(existing));
            } else if rng.gen_bool(config.constant_probability) && !config.constants.is_empty() {
                let c = config.constants[rng.gen_range(0..config.constants.len())].clone();
                args.push(Term::Const(c));
            } else {
                let v = fresh(&mut var_counter);
                all_vars.push(v.clone());
                args.push(Term::var(v));
            }
        }
        atoms.push(Atom::new(rel.name(), args));
    }

    // Head: a random subset of the variables.
    let mut head = Vec::new();
    let mut candidates = all_vars.clone();
    for _ in 0..config.head_variables.min(candidates.len()) {
        let idx = rng.gen_range(0..candidates.len());
        head.push(Term::var(candidates.swap_remove(idx)));
    }
    ConjunctiveQuery::new(head, atoms).expect("generated queries are safe by construction")
}

/// Parameters of the cyclic query generator.
#[derive(Debug, Clone)]
pub struct CyclicQueryConfig {
    /// Length of the variable cycle (3 = triangle).  Must be ≥ 3 to make the
    /// hypergraph cyclic.
    pub cycle_len: usize,
    /// Number of additional atoms joined onto cycle variables (self-joins
    /// and decorations); these may introduce constants.
    pub extra_atoms: usize,
    /// Probability that a non-cycle position is bound to a constant.
    pub constant_probability: f64,
    /// Pool of constants to draw from.
    pub constants: Vec<Value>,
    /// Number of head variables (capped by the number of variables present).
    pub head_variables: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CyclicQueryConfig {
    fn default() -> Self {
        CyclicQueryConfig {
            cycle_len: 3,
            extra_atoms: 1,
            constant_probability: 0.2,
            constants: (0..20).map(Value::int).collect(),
            head_variables: 1,
            seed: 1,
        }
    }
}

/// Generate `count` random *cyclic* conjunctive queries over `schema`.
///
/// Every query contains a variable cycle `x_0 → x_1 → ... → x_{k-1} → x_0`
/// threaded through the first two positions of relations with arity ≥ 2
/// (the schema must contain at least one such relation).  Extra atoms
/// self-join on cycle variables and may bind positions to constants, so the
/// generated pool also covers self-joins-with-constants.
pub fn generate_cyclic_queries(
    schema: &DatabaseSchema,
    config: &CyclicQueryConfig,
    count: usize,
) -> Vec<ConjunctiveQuery> {
    assert!(config.cycle_len >= 3, "a cycle needs at least 3 atoms");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let binary: Vec<_> = schema
        .relations()
        .filter(|r| r.arity() >= 2)
        .cloned()
        .collect();
    assert!(
        !binary.is_empty(),
        "cyclic queries need a relation of arity ≥ 2"
    );
    let all: Vec<_> = schema.relations().cloned().collect();
    (0..count)
        .map(|_| generate_one_cyclic(&binary, &all, config, &mut rng))
        .collect()
}

fn generate_one_cyclic(
    binary: &[bqr_data::RelationSchema],
    all: &[bqr_data::RelationSchema],
    config: &CyclicQueryConfig,
    rng: &mut StdRng,
) -> ConjunctiveQuery {
    let k = config.cycle_len;
    let mut atoms: Vec<Atom> = Vec::with_capacity(k + config.extra_atoms);
    let mut var_counter = k;
    let cycle_vars: Vec<String> = (0..k).map(|i| format!("x{i}")).collect();

    // The cycle: rel_i(x_i, x_{i+1 mod k}, ...) with the tail positions
    // filled by fresh variables or constants.
    for i in 0..k {
        let rel = &binary[rng.gen_range(0..binary.len())];
        let mut args = vec![
            Term::var(cycle_vars[i].clone()),
            Term::var(cycle_vars[(i + 1) % k].clone()),
        ];
        for _ in 2..rel.arity() {
            args.push(filler(config, rng, &mut var_counter));
        }
        atoms.push(Atom::new(rel.name(), args));
    }

    // Extra atoms: join on one or two cycle variables (possibly the same —
    // a repeated variable within the atom), constants elsewhere.
    for _ in 0..config.extra_atoms {
        let rel = &all[rng.gen_range(0..all.len())];
        let mut args = Vec::with_capacity(rel.arity());
        for pos in 0..rel.arity() {
            if pos < 2 && rel.arity() >= 2 && rng.gen_bool(0.7) {
                let v = cycle_vars[rng.gen_range(0..k)].clone();
                args.push(Term::var(v));
            } else {
                args.push(filler(config, rng, &mut var_counter));
            }
        }
        atoms.push(Atom::new(rel.name(), args));
    }

    let mut head = Vec::new();
    let mut candidates = cycle_vars.clone();
    for _ in 0..config.head_variables.min(candidates.len()) {
        let idx = rng.gen_range(0..candidates.len());
        head.push(Term::var(candidates.swap_remove(idx)));
    }
    ConjunctiveQuery::new(head, atoms).expect("generated queries are safe by construction")
}

fn filler(config: &CyclicQueryConfig, rng: &mut StdRng, var_counter: &mut usize) -> Term {
    if rng.gen_bool(config.constant_probability) && !config.constants.is_empty() {
        Term::Const(config.constants[rng.gen_range(0..config.constants.len())].clone())
    } else {
        let v = format!("x{var_counter}");
        *var_counter += 1;
        Term::var(v)
    }
}

/// Parameters of the random instance generator.
#[derive(Debug, Clone)]
pub struct RandomDatabaseConfig {
    /// Tuples inserted per relation (set semantics may deduplicate some).
    pub tuples_per_relation: usize,
    /// Values are drawn uniformly from `0..domain_size`.
    pub domain_size: i64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomDatabaseConfig {
    fn default() -> Self {
        RandomDatabaseConfig {
            tuples_per_relation: 30,
            domain_size: 8,
            seed: 1,
        }
    }
}

/// Generate a random instance of `schema`: integer tuples drawn uniformly
/// from a small domain, so joins and cycles actually connect.
pub fn generate_database(schema: &DatabaseSchema, config: &RandomDatabaseConfig) -> Database {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut db = Database::empty(schema.clone());
    let names: Vec<String> = schema.relations().map(|r| r.name().to_string()).collect();
    for name in names {
        let arity = schema.relation(&name).expect("listed relation").arity();
        for _ in 0..config.tuples_per_relation {
            let tuple: Tuple = (0..arity)
                .map(|_| Value::int(rng.gen_range(0..config.domain_size.max(1))))
                .collect();
            db.insert(&name, tuple).expect("arity is correct");
        }
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdr;
    use bqr_query::acyclic::is_acyclic;

    #[test]
    fn generated_queries_are_valid_and_acyclic() {
        let schema = cdr::schema();
        let config = RandomQueryConfig {
            atoms: 4,
            head_variables: 2,
            seed: 99,
            ..RandomQueryConfig::default()
        };
        let queries = generate_queries(&schema, &config, 50);
        assert_eq!(queries.len(), 50);
        for q in &queries {
            assert_eq!(q.atoms().len(), 4);
            assert!(q.arity() <= 2);
            assert!(
                is_acyclic(q),
                "join-tree construction keeps queries acyclic: {q}"
            );
            assert!(q.validate(&schema, &Default::default()).is_ok());
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let schema = cdr::schema();
        let config = RandomQueryConfig::default();
        let a = generate_queries(&schema, &config, 10);
        let b = generate_queries(&schema, &config, 10);
        assert_eq!(a, b);
        let c = generate_queries(
            &schema,
            &RandomQueryConfig {
                seed: 2,
                ..RandomQueryConfig::default()
            },
            10,
        );
        assert_ne!(a, c);
    }

    #[test]
    fn cyclic_queries_are_cyclic_valid_and_deterministic() {
        let schema = cdr::schema();
        for cycle_len in [3usize, 4, 5] {
            let config = CyclicQueryConfig {
                cycle_len,
                extra_atoms: 2,
                seed: 7,
                ..CyclicQueryConfig::default()
            };
            let queries = generate_cyclic_queries(&schema, &config, 25);
            assert_eq!(queries.len(), 25);
            for q in &queries {
                assert!(
                    !is_acyclic(q),
                    "a {cycle_len}-cycle must be cyclic (GYO residue non-empty): {q}"
                );
                assert_eq!(q.atoms().len(), cycle_len + 2);
                assert!(q.validate(&schema, &Default::default()).is_ok());
            }
            let again = generate_cyclic_queries(&schema, &config, 25);
            assert_eq!(queries, again, "same seed, same queries");
        }
    }

    #[test]
    fn random_databases_respect_schema_and_seed() {
        let schema = cdr::schema();
        let config = RandomDatabaseConfig {
            tuples_per_relation: 20,
            domain_size: 5,
            seed: 11,
        };
        let db = generate_database(&schema, &config);
        for rel in schema.relations() {
            let instance = db.relation(rel.name()).unwrap();
            assert!(instance.len() <= 20, "set semantics may deduplicate");
            assert!(!instance.is_empty());
        }
        let again = generate_database(&schema, &config);
        assert_eq!(db.size(), again.size(), "same seed, same instance");
        let other = generate_database(&schema, &RandomDatabaseConfig { seed: 12, ..config });
        assert_ne!(
            db.relation("calls").unwrap(),
            other.relation("calls").unwrap(),
            "different seed, different tuples"
        );
    }

    #[test]
    fn constant_probability_zero_gives_constant_free_queries() {
        let schema = cdr::schema();
        let config = RandomQueryConfig {
            constant_probability: 0.0,
            ..RandomQueryConfig::default()
        };
        for q in generate_queries(&schema, &config, 20) {
            assert!(q.constants().is_empty(), "{q}");
        }
    }
}
