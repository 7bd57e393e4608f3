//! The movie / Graph-Search setting of Example 1.1.

use bqr_core::problem::RewritingSetting;
use bqr_data::{tuple, AccessConstraint, AccessSchema, Database, DatabaseSchema};
use bqr_query::parser::parse_cq;
use bqr_query::{ConjunctiveQuery, ViewSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the movie-instance generator.
#[derive(Debug, Clone, Copy)]
pub struct MovieScale {
    /// Number of persons (and roughly of `like` tuples per person is 3).
    pub persons: usize,
    /// Number of movies.
    pub movies: usize,
    /// Bound `N_0` of φ1 = movie((studio, release) → mid, N_0).
    pub n0: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MovieScale {
    fn default() -> Self {
        MovieScale {
            persons: 1_000,
            movies: 500,
            n0: 100,
            seed: 7,
        }
    }
}

/// The schema `R_0`.
pub fn schema() -> DatabaseSchema {
    DatabaseSchema::with_relations(&[
        ("person", &["pid", "name", "affiliation"]),
        ("movie", &["mid", "mname", "studio", "release"]),
        ("rating", &["mid", "rank"]),
        ("like", &["pid", "id", "type"]),
    ])
    .expect("movie schema is well formed")
}

/// The access schema `A_0` with bound `n0`.
pub fn access_schema(n0: usize) -> AccessSchema {
    AccessSchema::new(vec![
        AccessConstraint::new("movie", &["studio", "release"], &["mid"], n0).unwrap(),
        AccessConstraint::new("rating", &["mid"], &["rank"], 1).unwrap(),
    ])
}

/// The query `Q_0` of Example 1.1.
pub fn q0() -> ConjunctiveQuery {
    parse_cq(
        "Q(mid) :- person(xp, xn, 'NASA'), movie(mid, ym, 'Universal', '2014'), \
         like(xp, mid, 'movie'), rating(mid, 5)",
    )
    .expect("Q0 parses")
}

/// The rewriting `Q_ξ` of Example 2.3 (over the view `V1`).
pub fn q_xi() -> ConjunctiveQuery {
    parse_cq("Q(mid) :- movie(mid, ym, 'Universal', '2014'), V1(mid), rating(mid, 5)")
        .expect("Qξ parses")
}

/// The view set `{V1}` of Example 1.1.
pub fn views() -> ViewSet {
    let mut v = ViewSet::empty();
    v.add_cq(
        "V1",
        parse_cq(
            "V1(mid) :- person(xp, xn, 'NASA'), movie(mid, ym, z1, z2), like(xp, mid, 'movie')",
        )
        .unwrap(),
    )
    .unwrap();
    v
}

/// The full rewriting setting `(R_0, A_0, {V1}, M)`.
pub fn setting(n0: usize, bound_m: usize) -> RewritingSetting {
    RewritingSetting::new(schema(), access_schema(n0), views(), bound_m)
}

const STUDIOS: &[&str] = &["Universal", "WB", "Paramount", "MGM", "Sony", "Fox"];
const AFFILIATIONS: &[&str] = &["NASA", "ESA", "MIT", "CERN", "JPL"];

/// Generate an instance of `R_0` that satisfies `A_0(n0)`.
///
/// The number of Universal/2014 movies is capped at `n0` (so φ1 holds), every
/// movie has exactly one rating (so φ2 holds), and the `person` / `like`
/// relations grow linearly with `scale.persons` — the part of the data a
/// bounded plan never has to touch.
pub fn generate(scale: MovieScale) -> Database {
    let mut rng = StdRng::seed_from_u64(scale.seed);
    let mut db = Database::empty(schema());

    // Movies: spread over studios and years so that each (studio, release)
    // group stays within n0.
    let years = ["2012", "2013", "2014", "2015"];
    // All the room `A_0` leaves; past it the rejection loop below never ends.
    let (movies, room) = (scale.movies, STUDIOS.len() * years.len() * scale.n0);
    let limit = "6 studios × 4 years × n0, all the room A_0 leaves";
    assert!(
        movies <= room,
        "{movies} movies do not fit {room} = {limit}"
    );
    let mut group_counts: std::collections::BTreeMap<(usize, usize), usize> =
        std::collections::BTreeMap::new();
    let mut mid = 0usize;
    while mid < scale.movies {
        let s = rng.gen_range(0..STUDIOS.len());
        let y = rng.gen_range(0..years.len());
        let count = group_counts.entry((s, y)).or_insert(0);
        if *count >= scale.n0 {
            continue;
        }
        *count += 1;
        db.insert(
            "movie",
            tuple![mid, format!("movie{mid}"), STUDIOS[s], years[y]],
        )
        .unwrap();
        let rank = rng.gen_range(1..=5i64);
        db.insert("rating", tuple![mid, rank]).unwrap();
        mid += 1;
    }

    // Persons and likes.
    for pid in 0..scale.persons {
        let aff = AFFILIATIONS[rng.gen_range(0..AFFILIATIONS.len())];
        db.insert("person", tuple![pid, format!("p{pid}"), aff])
            .unwrap();
        for _ in 0..3 {
            let liked = rng.gen_range(0..scale.movies.max(1));
            db.insert("like", tuple![pid, liked, "movie"]).unwrap();
        }
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_instances_satisfy_a0() {
        for persons in [50usize, 500] {
            let scale = MovieScale {
                persons,
                movies: 200,
                n0: 40,
                seed: 11,
            };
            let db = generate(scale);
            assert!(access_schema(40).satisfied_by(&db).unwrap());
            assert_eq!(db.relation("person").unwrap().len(), persons);
            assert_eq!(db.relation("movie").unwrap().len(), 200);
            assert_eq!(db.relation("rating").unwrap().len(), 200);
            assert!(db.relation("like").unwrap().len() <= 3 * persons);
        }
    }

    /// `A_0` leaves room for 24 · n0 movies; asking for more used to spin
    /// forever in the rejection loop.
    #[test]
    #[should_panic(expected = "961 movies do not fit 960")]
    fn more_movies_than_a0_has_room_for_is_refused() {
        generate(MovieScale {
            persons: 1,
            movies: 961,
            n0: 40,
            seed: 1,
        });
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(MovieScale::default());
        let b = generate(MovieScale::default());
        assert_eq!(a, b);
        let c = generate(MovieScale {
            seed: 8,
            ..MovieScale::default()
        });
        assert_ne!(a, c);
    }

    #[test]
    fn setting_is_well_formed() {
        let s = setting(100, 40);
        assert!(s.validate().is_ok());
        assert_eq!(s.views.len(), 1);
        assert_eq!(s.access.len(), 2);
        assert_eq!(q0().arity(), 1);
        assert_eq!(q_xi().arity(), 1);
    }
}
