//! Sorted String Tables: blocks, bloom filters, cache, builder and reader.

pub mod block;
pub mod bloom;
pub mod cache;
pub mod table;

pub use block::{Block, BlockBuilder, BlockIter};
pub use bloom::BloomPolicy;
pub use cache::BlockCache;
pub use table::{
    BlockHandle, TableBuilder, TableConfig, TableIterator, TableReader, TableSummary, TableTail,
};
