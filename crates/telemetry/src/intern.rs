//! The crate's one intern table: stage names, and the paths stages
//! nest into.
//!
//! Stage names are `&'static str`s interned to small ids; the same id
//! picks the allocator slot. A *path* is the chain of stages that were
//! open when a stage opened, interned edge by edge as `(enclosing path,
//! stage)`, so a thread's position carries where it is in one `u32` and
//! a spawned thread inherits it by copy. Ids are nonzero and stable for
//! the process lifetime; [`resolve`] and [`path_names`] map them back
//! at export time.

use std::sync::RwLock;

/// Id `i` names `NAMES[i - 1]`; id 0 is "no stage".
static NAMES: RwLock<Vec<&'static str>> = RwLock::new(Vec::new());

/// Path `i` is `PATHS[i - 1]`: the enclosing path and the stage opened
/// under it. Path 0 is the empty path of a thread outside any stage.
static PATHS: RwLock<Vec<(u32, u32)>> = RwLock::new(Vec::new());

/// Known items take the read lock only; the scan is linear because
/// stage names number in the dozens and paths little more.
fn intern_in<T: Copy + PartialEq>(table: &RwLock<Vec<T>>, item: T) -> u32 {
    let find = |table: &[T]| table.iter().position(|t| *t == item).map(|i| i as u32 + 1);
    if let Some(id) = find(&table.read().unwrap_or_else(|e| e.into_inner())) {
        return id;
    }
    let mut table = table.write().unwrap_or_else(|e| e.into_inner());
    find(&table).unwrap_or_else(|| {
        table.push(item);
        table.len() as u32
    })
}

/// Intern a stage name to its id.
pub(crate) fn intern(name: &'static str) -> u32 {
    intern_in(&NAMES, name)
}

/// Resolve an interned id back to its name (export-time only).
pub(crate) fn resolve(id: u32) -> &'static str {
    let table = NAMES.read().unwrap_or_else(|e| e.into_inner());
    (id as usize).checked_sub(1).and_then(|i| table.get(i).copied()).unwrap_or("(unknown)")
}

/// The path of `stage` opened under `parent`.
pub(crate) fn intern_path(parent: u32, stage: u32) -> u32 {
    intern_in(&PATHS, (parent, stage))
}

/// The stage names along `path`, outermost first (export-time only).
pub(crate) fn path_names(mut path: u32) -> Vec<&'static str> {
    let table = PATHS.read().unwrap_or_else(|e| e.into_inner());
    let mut names = Vec::new();
    while let Some(&(parent, stage)) = (path as usize).checked_sub(1).and_then(|i| table.get(i)) {
        names.push(resolve(stage));
        path = parent;
    }
    names.reverse();
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_resolvable() {
        let a = intern("intern.test.alpha");
        let b = intern("intern.test.beta");
        assert!(a != 0 && b != 0 && a != b);
        assert_eq!(intern("intern.test.alpha"), a);
        assert_eq!(resolve(a), "intern.test.alpha");
        assert_eq!(resolve(b), "intern.test.beta");
        assert_eq!(resolve(0), "(unknown)");
    }

    #[test]
    fn paths_are_interned_by_edge_and_resolve_outermost_first() {
        let (a, b) = (intern("intern.test.outer"), intern("intern.test.inner"));
        let outer = intern_path(0, a);
        let inner = intern_path(outer, b);
        assert!(outer != 0 && inner != 0 && outer != inner);
        assert_eq!(intern_path(outer, b), inner, "same edge, same path");
        assert_ne!(intern_path(0, b), inner, "same stage under another path is another path");
        assert_eq!(path_names(inner), ["intern.test.outer", "intern.test.inner"]);
        assert_eq!(path_names(intern_path(inner, b)).len(), 3, "recursion is its own path");
        assert!(path_names(0).is_empty());
    }
}
