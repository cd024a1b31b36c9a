//! Stand-in for `serde_derive`. The workspace derives `Serialize` and
//! `Deserialize` on its types but holds no serializer, so the derives
//! expand to nothing; `#[serde(..)]` is accepted as a helper attribute.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
