//! [`Knobs`] — the per-query settings a session carries, and the one
//! parser every text spelling of them goes through.
//!
//! Five values decide how a statement is answered: the default
//! visibility and OPEN seed (which change *what* comes back) and three
//! execution settings — worker threads, the logical optimizer and
//! result-cache participation — that never change an answer, only its
//! latency. They are spelled as environment variables,
//! wire `SetOption` frames, shell flags and the shell's `.set`
//! meta-command; every one of those calls [`Knobs::set`], the only place
//! a setting's text is parsed, over the one [`KEYS`] table.

use std::sync::OnceLock;

use mosaic_sql::Visibility;

/// The per-query settings of one [`Session`](crate::Session).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knobs {
    /// Visibility applied to population queries that don't specify one.
    pub visibility: Visibility,
    /// Base seed of OPEN generation: the same seed draws the same
    /// replicates, so an OPEN answer is reproducible (and cached) like
    /// any other.
    pub seed: u64,
    /// Worker-thread cap shared by the morsel-driven executor and the
    /// OPEN replicate loop (minimum 1).
    pub threads: usize,
    /// Whether SELECT planning runs the rule-based logical optimizer.
    pub optimizer: bool,
    /// Whether queries look up and fill the shared result cache.
    pub result_cache: bool,
}

impl Default for Knobs {
    /// The built-in defaults, before any environment variable.
    fn default() -> Knobs {
        Knobs {
            visibility: Visibility::SemiOpen,
            seed: 0,
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            optimizer: true,
            result_cache: true,
        }
    }
}

/// One settable key: its name, the aliases it also answers to, the
/// environment variable that sets its process default (if any), and the
/// values it accepts.
#[derive(Debug)]
pub struct Key {
    /// Canonical name.
    pub name: &'static str,
    /// Other accepted names.
    pub aliases: &'static [&'static str],
    /// Environment variable read once per process by [`Knobs::from_env`].
    pub env: Option<&'static str>,
    /// The accepted values, as shown in usage messages.
    pub grammar: &'static str,
}

impl Key {
    /// The key `name` (or one of its aliases, case-insensitive) names,
    /// or the "unknown option" error that lists every key of [`KEYS`].
    pub fn find(name: &str) -> Result<&'static Key, String> {
        let name = name.trim().to_ascii_lowercase();
        KEYS.iter()
            .find(|k| k.name == name || k.aliases.contains(&name.as_str()))
            .ok_or_else(|| {
                let known: Vec<String> = KEYS
                    .iter()
                    .map(|k| format!("{}={}", k.name, k.grammar))
                    .collect();
                format!("unknown option {name} (known: {})", known.join(", "))
            })
    }
}

/// Every key [`Knobs::set`] accepts.
pub const KEYS: &[Key] = &[
    Key {
        name: "visibility",
        aliases: &[],
        env: None,
        grammar: "closed|semi-open|open",
    },
    Key {
        name: "seed",
        aliases: &[],
        env: None,
        grammar: "<u64>",
    },
    Key {
        name: "threads",
        aliases: &["parallelism"],
        env: Some("MOSAIC_PARALLELISM"),
        grammar: "<n >= 1>",
    },
    Key {
        name: "optimizer",
        aliases: &[],
        env: Some("MOSAIC_OPTIMIZER"),
        grammar: "on|off",
    },
    Key {
        name: "result_cache",
        aliases: &[],
        env: Some("MOSAIC_RESULT_CACHE"),
        grammar: "on|off",
    },
];

impl Knobs {
    /// The process defaults: [`Knobs::default`] with every set
    /// environment variable of [`KEYS`] applied through [`Knobs::set`].
    /// Read once per process; an invalid value is ignored.
    pub fn from_env() -> Knobs {
        static ENV: OnceLock<Knobs> = OnceLock::new();
        *ENV.get_or_init(|| Knobs::from_lookup(|var| std::env::var(var).ok()))
    }

    /// [`Knobs::from_env`] over any variable lookup.
    fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Knobs {
        let mut knobs = Knobs::default();
        for key in KEYS {
            if let Some(value) = key.env.and_then(&lookup) {
                let _ = knobs.set(key.name, &value);
            }
        }
        knobs
    }

    /// Set one key (or alias, case-insensitive) from its text. Booleans
    /// take `on|off|true|false|1|0|yes|no`, counts an integer ≥ 1,
    /// `visibility` takes `closed|semi-open|semiopen|open` and `seed` a
    /// `u64`. On an error the knobs are unchanged and the message names
    /// the accepted values.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        let k = Key::find(key)?;
        let text = value.trim().to_ascii_lowercase();
        let invalid = || {
            format!(
                "invalid value {value:?} for {} (expected {})",
                k.name, k.grammar
            )
        };
        let flag = || match text.as_str() {
            "on" | "true" | "1" | "yes" => Ok(true),
            "off" | "false" | "0" | "no" => Ok(false),
            _ => Err(invalid()),
        };
        let count = || {
            text.parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(invalid)
        };
        match k.name {
            "visibility" => {
                self.visibility = match text.as_str() {
                    "closed" => Visibility::Closed,
                    "semi-open" | "semiopen" => Visibility::SemiOpen,
                    "open" => Visibility::Open,
                    _ => return Err(invalid()),
                }
            }
            "seed" => self.seed = text.parse().map_err(|_| invalid())?,
            "threads" => self.threads = count()?,
            "optimizer" => self.optimizer = flag()?,
            "result_cache" => self.result_cache = flag()?,
            other => unreachable!("key {other} is in KEYS but has no parser"),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every key and alias with each accepted spelling, and one rejected
    /// value per grammar that leaves the knobs unchanged.
    #[test]
    fn every_key_parses_its_grammar() {
        let base = Knobs::default();
        let set_from = |start: Knobs, key: &str, value: &str| {
            let mut k = start;
            k.set(key, value).map(|()| k)
        };
        let set = |key: &str, value: &str| set_from(base, key, value);
        use Visibility::{Closed, Open, SemiOpen};
        let visibilities = [
            ("closed", Closed),
            ("semi-open", SemiOpen),
            ("SemiOpen", SemiOpen),
            ("OPEN", Open),
        ];
        for (v, want) in visibilities {
            assert_eq!(set("visibility", v).map(|k| k.visibility), Ok(want), "{v}");
        }
        for (v, want) in [("0", 0), (" 42 ", 42), ("18446744073709551615", u64::MAX)] {
            assert_eq!(set("Seed", v).map(|k| k.seed), Ok(want), "{v}");
        }
        for (key, v, n) in [
            ("threads", "1", 1),
            ("parallelism", "12", 12),
            ("THREADS", " 3", 3),
        ] {
            assert_eq!(set(key, v).map(|k| k.threads), Ok(n), "{key}={v}");
        }
        // Both switches default on: each `off` spelling changes the
        // knobs, and the paired `on` spelling restores exactly them.
        let switches = [
            ("on", "off"),
            ("true", "false"),
            ("1", "0"),
            ("yes", "no"),
            ("ON", "Off"),
            ("True", "FALSE"),
        ];
        for (on, off) in switches {
            for key in ["optimizer", "result_cache"] {
                let dark = set(key, off).unwrap();
                assert_ne!(dark, base, "{key}={off}");
                assert_eq!(set_from(dark, key, on), Ok(base), "{key}={on}");
            }
        }
        for (key, value) in [
            ("threads", "0"),
            ("parallelism", "-2"),
            ("optimizer", "maybe"),
            ("result_cache", "64"),
            ("seed", "-1"),
            ("visibility", "half-open"),
        ] {
            let mut k = base;
            let err = k.set(key, value).unwrap_err();
            assert!(err.contains("invalid value"), "{key}={value}: {err}");
            assert_eq!(k, base, "{key}={value} must leave the knobs unchanged");
        }
        let err = set("flux_capacitor", "on").unwrap_err();
        assert!(err.starts_with("unknown option flux_capacitor"), "{err}");
        for key in KEYS {
            assert!(err.contains(key.name), "{err} lists {}", key.name);
        }
    }

    /// The retired merge-partition knob is an unknown option like any
    /// other, and the error lists the five keys that remain.
    #[test]
    fn partitions_is_an_unknown_option() {
        let mut k = Knobs::default();
        let err = k.set("partitions", "4").unwrap_err();
        assert_eq!(
            err,
            "unknown option partitions (known: visibility=closed|semi-open|open, seed=<u64>, \
             threads=<n >= 1>, optimizer=on|off, result_cache=on|off)"
        );
        assert_eq!(k, Knobs::default());
        assert_eq!(KEYS.len(), 5);
    }

    /// Each environment variable feeds its key through `set`; an invalid
    /// value is ignored, and `MOSAIC_RESULT_CACHE` takes the on|off
    /// grammar of its key — `no`, `false` and `0` all turn caching off.
    #[test]
    fn from_env_feeds_every_variable_through_set() {
        let env = |vars: &[(&str, &str)]| {
            Knobs::from_lookup(|var| {
                let found = vars.iter().find(|(k, _)| *k == var);
                found.map(|(_, v)| v.to_string())
            })
        };
        assert_eq!(env(&[]), Knobs::default());
        let set = env(&[
            ("MOSAIC_PARALLELISM", "3"),
            ("MOSAIC_OPTIMIZER", "off"),
            ("MOSAIC_RESULT_CACHE", "off"),
        ]);
        assert_eq!(
            (set.threads, set.optimizer, set.result_cache),
            (3, false, false)
        );
        for off in ["no", "false", "0", "off", "OFF"] {
            assert!(!env(&[("MOSAIC_RESULT_CACHE", off)]).result_cache, "{off}");
            assert!(!env(&[("MOSAIC_OPTIMIZER", off)]).optimizer, "{off}");
        }
        assert!(env(&[("MOSAIC_RESULT_CACHE", "on")]).result_cache);
        for bad in [
            ("MOSAIC_PARALLELISM", "0"),
            ("MOSAIC_OPTIMIZER", "maybe"),
            ("MOSAIC_RESULT_CACHE", "64"),
        ] {
            assert_eq!(env(&[bad]), Knobs::default(), "{bad:?} is ignored");
        }
    }
}
